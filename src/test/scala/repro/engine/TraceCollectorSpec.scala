package repro.engine

import java.lang.management.ManagementFactory
import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading}
import repro.disk.DiskSim
import repro.walk.{Node2vecModel, WalkTask}

class TraceCollectorSpec extends AnyFunSuite {

  /** Write every walk of `walks` into a collector bound to `maxLen`, one
    * vertex at a time through `put`, in a random interleaving that keeps
    * each walk's own order (as buckets do), end each walk, and seal it.
    */
  private def logged(walks: IndexedSeq[IndexedSeq[Int]], seed: Int, maxLen: Int = 40): TraceCollector = {
    val t = new TraceCollector(walks.length)
    t.bind(maxLen)
    val next = new Array[Int](walks.length)
    val live = scala.collection.mutable.ArrayBuffer.from(walks.indices.filter(walks(_).nonEmpty))
    val rng = new Random(seed)
    while (live.nonEmpty) {
      val i = rng.nextInt(live.length)
      val w = live(i)
      val h = next(w)
      t.put(w.toLong, h, walks(w)(h))
      next(w) += 1
      if (next(w) == walks(w).length) {
        t.end(w.toLong, next(w))
        live(i) = live.last
        live.remove(live.length - 1)
      }
    }
    t.seal()
    t
  }

  private def assertCorpus(t: TraceCollector, walks: IndexedSeq[IndexedSeq[Int]]): Unit = {
    assert(t.nWalks == walks.length)
    for (w <- walks.indices) {
      assert(t.length(w) == walks(w).length, s"walk $w")
      assert(t.path(w).toSeq == walks(w), s"walk $w")
      for (h <- walks(w).indices) assert(t.vertex(w, h) == walks(w)(h))
    }
  }

  test("interleaved starts and steps of many walks seal into per-walk hop order") {
    val rng = new Random(3)
    val walks = IndexedSeq.tabulate(1000)(w => IndexedSeq.fill(1 + w % 41)(rng.nextInt(Int.MaxValue)))
    assertCorpus(logged(walks, seed = 4), walks)
  }

  test("a walk that starts on a dangling vertex has length 1") {
    val walks = IndexedSeq(IndexedSeq(5, 6, 7), IndexedSeq(9), IndexedSeq(1, 2))
    val t = logged(walks, seed = 1)
    assert(t.length(1) == 1 && t.path(1).toSeq == Seq(9) && t.vertex(1, 0) == 9)
    assertThrows[IndexOutOfBoundsException](t.vertex(1, 1))
    assertThrows[IndexOutOfBoundsException](t.vertex(1, -1))
  }

  test("the last walk id nWalks - 1 is stored, and unlogged walks are empty") {
    val t = new TraceCollector(7)
    t.bind(maxLen = 1)
    t.put(6L, 0, 42); t.put(6L, 1, 43); t.end(6L, 2)
    t.seal()
    assert(t.path(6).toSeq == Seq(42, 43))
    assert((0 until 6).forall(t.length(_) == 0))
  }

  test("an id outside the corpus fails when it is written") {
    val t = new TraceCollector(3)
    t.bind(maxLen = 4)
    assertThrows[IndexOutOfBoundsException](t.put(3L, 0, 0))
    assertThrows[IndexOutOfBoundsException](t.end(3L, 1))
  }

  test("the boxed paths view equals path(w) for every walk") {
    val rng = new Random(8)
    val walks = IndexedSeq.tabulate(300)(w => IndexedSeq.fill(w % 5)(rng.nextInt(1000)))
    val t = logged(walks, seed = 9)
    assert(t.paths.length == t.nWalks)
    for (w <- walks.indices) assert(t.paths(w).toSeq == t.path(w).toSeq)
    assert(t.paths eq t.paths) // built once
  }

  test("the corpus cannot be read before it is sealed, nor appended to after") {
    val t = new TraceCollector(2)
    t.bind(maxLen = 3)
    t.put(0L, 0, 1); t.put(0L, 1, 2); t.end(0L, 2)
    for (read <- Seq(() => t.length(0), () => t.vertex(0, 0), () => t.path(0), () => t.paths)) {
      val e = intercept[IllegalStateException](read())
      assert(e.getMessage.contains("before the run sealed it"))
    }
    t.seal()
    t.seal() // idempotent
    assert(t.path(0).toSeq == Seq(1, 2))
    // Only a run writes a corpus, and a sealed one takes no further run.
    val e = intercept[IllegalStateException](t.bind(maxLen = 3))
    assert(e.getMessage.contains("records one run"))
    assert(t.path(0).toSeq == Seq(1, 2))
  }

  test("an empty corpus seals to empty walks") {
    val none = new TraceCollector(0)
    none.bind(maxLen = 5)
    none.seal()
    assert(none.paths.isEmpty)
    val unlogged = new TraceCollector(3)
    unlogged.bind(maxLen = 5)
    unlogged.seal()
    assert((0 until 3).forall(unlogged.length(_) == 0))
  }

  test("a collector passed to a second run throws IllegalStateException") {
    val bg = TestGraphs.blocked(TestGraphs.connected(60, 150, seed = 5), 4)
    val task = WalkTask.rwnv(bg.g, walksPerVertex = 1, len = 6)
    val engine = new BiBlockEngine(BlockLoading.AlwaysFull)
    val trace = new TraceCollector(task.totalWalks.toInt)
    engine.run(bg, task, new DiskSim(), null, trace)
    val first = (0 until trace.nWalks).map(trace.path(_).toSeq)
    val e = intercept[IllegalStateException](engine.run(bg, task, new DiskSim(), null, trace))
    assert(e.getMessage.contains("records one run"))
    assert((0 until trace.nWalks).map(trace.path(_).toSeq) == first)
  }

  test("a corpus beyond an Int array fails in new Walker before it allocates") {
    val bg = TestGraphs.blocked(TestGraphs.ring(10), 2)
    val task = WalkTask("t", Node2vecModel(1, 1), Array((0, 1)), 40, 0.0, 1)
    val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val trace = new TraceCollector(1 << 26) // 2^26 walks x 41 slots > 2^31
    val before = mx.getCurrentThreadAllocatedBytes
    val e = intercept[IllegalArgumentException](new Walker(bg, task, new DiskSim(), null, trace))
    val allocated = mx.getCurrentThreadAllocatedBytes - before
    assert(e.getMessage.contains("more than an Int array holds"))
    assert(allocated < (1 << 20), s"$allocated bytes allocated before the check")
  }

  test("a collector must hold every walk of the task") {
    assertThrows[IllegalArgumentException](new TraceCollector(-1))
    val bg = TestGraphs.blocked(TestGraphs.ring(10), 2)
    def task(starts: Array[(Int, Int)]) = WalkTask("t", Node2vecModel(1, 1), starts, 10, 0.0, 1)
    val ten = task(Array((0, 4), (3, 6)))
    new Walker(bg, ten, new DiskSim(), null, new TraceCollector(10))
    new Walker(bg, ten, new DiskSim(), null, new TraceCollector(11))
    val e = intercept[IllegalArgumentException](new Walker(bg, ten, new DiskSim(), null, new TraceCollector(9)))
    assert(e.getMessage.contains("cannot hold"))
    // `totalWalks.toInt` wraps above 2^31 - 1 walks: to a negative size, which
    // the collector rejects, or to a small one, which the Walker rejects.
    val twoPow31 = task(Array((0, Int.MaxValue), (1, 1)))
    assert(twoPow31.totalWalks.toInt < 0)
    assertThrows[IllegalArgumentException](new TraceCollector(twoPow31.totalWalks.toInt))
    val wrapped = task(Array((0, Int.MaxValue), (1, Int.MaxValue), (2, 5)))
    assert(wrapped.totalWalks.toInt == 3)
    assertThrows[IllegalArgumentException](
      new Walker(bg, wrapped, new DiskSim(), null, new TraceCollector(wrapped.totalWalks.toInt)))
  }
}
