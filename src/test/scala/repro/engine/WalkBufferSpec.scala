package repro.engine

import java.lang.management.ManagementFactory
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading}
import repro.disk.DiskSim
import repro.graph.{BlockedGraph, CsrGraph}
import repro.walk.{DeepWalkModel, Node2vecModel, WalkTask}

class WalkBufferSpec extends AnyFunSuite {

  test("a record round-trips every field at its limits") {
    val b = new WalkBuffer(3)
    val maxId = (1L << 40) - 1
    val maxHop = (1 << 24) - 1
    b.add(maxId, maxHop, -1, Int.MaxValue)
    b.add(0L, 0, Int.MaxValue, 0)
    b.add(maxId, 0, -1, -1)
    assert((b.id(0), b.hop(0), b.prev(0), b.cur(0)) == ((maxId, maxHop, -1, Int.MaxValue)))
    assert((b.id(1), b.hop(1), b.prev(1), b.cur(1)) == ((0L, 0, Int.MaxValue, 0)))
    assert((b.id(2), b.hop(2), b.prev(2), b.cur(2)) == ((maxId, 0, -1, -1)))
  }

  test("a page keeps insertion order up to its capacity and never grows") {
    val b = new WalkBuffer(1000)
    for (k <- 0 until 1000) b.add(k.toLong, k % 7, k - 1, k + 1)
    assert(b.length == 1000)
    assert((0 until 1000).forall(k => b.id(k) == k && b.hop(k) == k % 7 && b.prev(k) == k - 1 && b.cur(k) == k + 1))
    assertThrows[IndexOutOfBoundsException](b.add(1000L, 0, 0, 0))
    b.clear()
    assert(b.length == 0 && b.minHop == Int.MaxValue)
  }

  test("pools track their minimum hop and reset it on drain") {
    val p = new WalkPools(3)
    def minHops = (0 until 3).map(p.pool(_).minHop)
    assert(minHops == Seq(Int.MaxValue, Int.MaxValue, Int.MaxValue))
    p.pool(1).part(0).add(0, 5, 1, 2); p.pool(1).part(0).add(1, 3, 1, 2); p.pool(2).part(0).add(2, 9, 1, 2)
    assert(minHops == Seq(Int.MaxValue, 3, 9))
    assert((0 until 3).map(p.size) == Seq(0, 2, 1))
    val drained = p.drain(1)
    assert(drained.length == 2 && drained.minHop == 3)
    assert(minHops == Seq(Int.MaxValue, Int.MaxValue, 9))
    p.pool(1).part(0).add(2, 9, 1, 2)
    assert(p.pool(1).minHop == 9)
  }

  test("drain recycles the previously drained buffer as an empty pool") {
    val p = new WalkPools(2)
    p.pool(0).part(0).add(0, 1, 1, 2)
    val first = p.drain(0)
    assert(first.length == 1 && p.size(0) == 0)
    p.pool(1).part(0).add(0, 1, 1, 2)
    val second = p.drain(1)
    assert(second.length == 1 && first.isEmpty) // `first` is reused ...
    assert(p.pool(1) eq first)                   // ... as pool 1's buffer
  }

  test("Walker rejects a task with more walks than a record can number") {
    val bg = TestGraphs.blocked(TestGraphs.ring(10), 2)
    def task(starts: Array[(Int, Int)]) = WalkTask("big", Node2vecModel(1, 1), starts, 10, 0.0, 1)
    // 512 x (2^31 - 1) + 512 = 2^40 walks fit; one more does not.
    val fits = Array.fill(512)((0, Int.MaxValue)) :+ ((1, 512))
    new Walker(bg, task(fits), new DiskSim(), null, null)
    assertThrows[IllegalArgumentException](
      new Walker(bg, task(fits :+ ((2, 1))), new DiskSim(), null, null))
  }

  test("Walker rejects a task whose maxLen does not fit the hop field") {
    val bg = TestGraphs.blocked(TestGraphs.ring(10), 2)
    def task(maxLen: Int) = WalkTask("long", Node2vecModel(1, 1), Array((0, 1)), maxLen, 0.0, 1)
    new Walker(bg, task((1 << 24) - 1), new DiskSim(), null, null)
    assertThrows[IllegalArgumentException](new Walker(bg, task(1 << 24), new DiskSim(), null, null))
  }

  test("Walker rejects per-slot lane state beyond an array before it allocates") {
    // An edgeless graph of 400,000 one-vertex blocks: a lane would need
    // 400,000² x 6 counts and 400,000 x 6,250 mark words.
    val nV = 400000
    val bg = new BlockedGraph(CsrGraph.fromEdges(nV, Array.empty[Int], Array.empty[Int]), Array.range(0, nV + 1))
    val task = WalkTask("t", DeepWalkModel, Array((0, 1)), 10, 0.0, 1)
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val before = mx.getCurrentThreadAllocatedBytes
    val e = intercept[IllegalArgumentException](new Walker(bg, task, new DiskSim(), null, null))
    val allocated = mx.getCurrentThreadAllocatedBytes - before
    assert(e.getMessage.contains(s"nB = $nV") && e.getMessage.contains(s"nV = $nV"), e.getMessage)
    assert(allocated < (1 << 20), s"$allocated bytes allocated before the check")
  }

  /** Bytes allocated so far by each live thread, by thread id. */
  private def allocatedBytes(): Map[Long, Long] = {
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val ids = mx.getAllThreadIds
    ids.zip(mx.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes every thread allocated since `before`, a run's lanes included. */
  private def allocatedSince(before: Map[Long, Long]): Long =
    allocatedBytes().map { case (id, bytes) => bytes - before.getOrElse(id, 0L) }.sum

  test("a BiBlock run without visits or trace allocates at most 8 bytes per step") {
    val g = TestGraphs.connected(3000, 24000, seed = 71)
    val bg = TestGraphs.blocked(g, 12)
    val task = WalkTask.rwnv(g, walksPerVertex = 1, len = 40)
    for (policy <- Seq(BlockLoading.AlwaysFull, BlockLoading.AlwaysOnDemand)) {
      val engine = new BiBlockEngine(policy)
      engine.run(bg, task, new DiskSim()) // warm-up
      val sim = new DiskSim()
      val before = allocatedBytes()
      val m = engine.run(bg, task, sim)
      val perStep = allocatedSince(before).toDouble / m.steps
      info(f"${engine.name}: $perStep%.2f B/step over ${m.steps} steps")
      assert(m.steps >= 50000)
      assert(perStep <= 8.0, f"${engine.name}: $perStep%.2f B/step")
    }
  }

  test("a traced BiBlock run allocates at most 20 bytes per step, corpus included") {
    val g = TestGraphs.connected(3000, 24000, seed = 71)
    val bg = TestGraphs.blocked(g, 12)
    val task = WalkTask.rwnv(g, walksPerVertex = 1, len = 40)
    val engine = new BiBlockEngine(BlockLoading.AlwaysFull)
    engine.run(bg, task, new DiskSim(), null, new TraceCollector(task.totalWalks.toInt)) // warm-up
    val trace = new TraceCollector(task.totalWalks.toInt)
    val before = allocatedBytes()
    val m = engine.run(bg, task, new DiskSim(), null, trace)
    val perStep = allocatedSince(before).toDouble / m.steps
    info(f"${engine.name} traced: $perStep%.2f B/step over ${m.steps} steps")
    assert(m.steps >= 50000)
    assert((0 until trace.nWalks).map(trace.length(_).toLong).sum == m.steps + trace.nWalks)
    assert(perStep <= 20.0, f"${engine.name} traced: $perStep%.2f B/step")
  }
}
