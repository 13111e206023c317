package repro.engine

import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** In-memory state of one walk.
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). The persisted
  * form is the 128-bit codec in [[repro.core.WalkEncoding]]; engines charge
  * its 16 bytes per walk on every pool read/write.
  */
final case class Walk(id: Long, src: Int, prev: Int, cur: Int, hop: Int)

/** Per-block walk pools ("walk pool" + disk walk storage of §3). The
  * association rule (traditional = current block; skewed = min(pre, cur)
  * block) is the caller's responsibility — this holds the buffers and the
  * summaries the scheduling strategies consume.
  */
final class WalkPools(val nBlocks: Int) {
  val pools: Array[ArrayBuffer[Walk]] = Array.fill(nBlocks)(new ArrayBuffer[Walk])

  def add(b: Int, w: Walk): Unit = pools(b) += w

  def isEmpty: Boolean = pools.forall(_.isEmpty)

  def size(b: Int): Int = pools(b).length

  def totalWalks: Long = pools.map(_.length.toLong).sum

  def sizes: Array[Long] = pools.map(_.length.toLong)

  /** Minimum hop count per pool (Int.MaxValue for empty pools) — the
    * Min-Height strategy's input.
    */
  def minHops: Array[Int] =
    pools.map(p => if (p.isEmpty) Int.MaxValue else p.iterator.map(_.hop).min)

  /** Remove and return the walks of pool `b`. */
  def drain(b: Int): ArrayBuffer[Walk] = {
    val out = pools(b)
    pools(b) = new ArrayBuffer[Walk]
    out
  }
}

/** Records full trajectories for the engine-equivalence tests. */
final class TraceCollector(nWalks: Int) {
  val paths: Array[ArrayBuffer[Int]] = Array.fill(nWalks)(new ArrayBuffer[Int])
  def start(id: Long, src: Int): Unit = paths(id.toInt) += src
  def step(id: Long, v: Int): Unit = paths(id.toInt) += v
}

/** Which blocks an engine holds in memory while it advances a walk, and
  * what I/O a step costs to reach its previous and current vertex.
  */
abstract class Residency {
  def holds(block: Int): Boolean

  /** Charge the I/O the step from `cur` (entered from `prev`, -1 before
    * the first step) needs before it samples. Default: none.
    */
  def touch(prev: Int, cur: Int): Unit = ()
}

/** The one walk-step kernel: every engine starts and advances walks through
  * it, so trajectories are engine-independent (deterministic counter RNG)
  * and execution cost, visits and traces are recorded uniformly.
  */
final class Walker(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                   visits: Array[Long], trace: TraceCollector) {
  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder

  /** Create walk `id` at `src` and record its first vertex. */
  def start(id: Long, src: Int): Walk = {
    if (visits != null) visits(src) += 1
    if (trace != null) trace.start(id, src)
    Walk(id, src, -1, src, 0)
  }

  /** Step `w` while `mem` holds its current vertex's block. Returns the walk
    * where it left memory, or null once it ended (stuck on a dangling
    * vertex, or stopped by the task).
    */
  def advance(w: Walk, mem: Residency): Walk = {
    val id = w.id
    var prev = w.prev
    var cur = w.cur
    var hop = w.hop
    while (mem.holds(bg.blockOf(cur))) {
      mem.touch(prev, cur)
      sim.chargeStep(g.degree(cur), secondOrder && prev >= 0)
      val z = model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
      if (z < 0) return null
      prev = cur
      cur = z
      hop += 1
      if (visits != null) visits(z) += 1
      if (trace != null) trace.step(id, z)
      if (task.stopsAfter(id, hop)) return null
    }
    Walk(id, w.src, prev, cur, hop)
  }
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Runs initialization, invoking `persist` for every surviving walk (its
    * current vertex is outside its source block).
    */
  def run(walker: Walker)(persist: Walk => Unit): Unit = {
    val bg = walker.bg
    val sim = walker.sim
    // Group start vertices by block for the sequential init scan.
    val startsByBlock = Array.fill(bg.nBlocks)(new ArrayBuffer[(Int, Int)])
    walker.task.starts.foreach { case (v, c) => if (c > 0) startsByBlock(bg.blockOf(v)) += ((v, c)) }
    var nextId = 0L
    // Walk IDs must be identical across engines: assign in (block, start) order.
    for (b <- 0 until bg.nBlocks if startsByBlock(b).nonEmpty) {
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      sim.timeSlots += 1
      val source = new Residency { def holds(block: Int): Boolean = block == b }
      startsByBlock(b).foreach { case (v, count) =>
        var k = 0
        while (k < count) {
          val w = walker.advance(walker.start(nextId, v), source)
          nextId += 1
          if (w != null) persist(w)
          k += 1
        }
      }
    }
  }
}
