package repro.core

import repro.disk.DiskSim
import repro.engine.{Init, Residency, TraceCollector, WalkBuffer, WalkEngine, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The bi-block execution engine (§4, Algorithms 1 and 2).
  *
  * Current blocks are scheduled iteratively `0 .. N_B - 2`; within a time
  * slot, ancillary blocks are scheduled triangularly `b+1 .. N_B - 1`
  * (skipping empty buckets, like the iteration-based current schedule skips
  * empty pools). Walks live in the skewed storage (min-block pools), are
  * collected into buckets by Eq. 4, advance while their current vertex stays
  * inside either in-memory block, and are re-associated by the Alg. 2 case
  * analysis — including the bucket-extending rule of line 14.
  *
  * @param policy  ancillary-block loading policy (§5): pure full load,
  *                pure on-demand, or the learned threshold model
  * @param loadLog optional (block, η, t) sample collector for LBL training
  */
final class BiBlockEngine(
    policy: BlockLoading.Policy = BlockLoading.AlwaysFull,
    loadLog: LoadLogCollector = null,
) extends WalkEngine {

  def name: String = policy match {
    case BlockLoading.AlwaysFull     => "BiBlock(full)"
    case BlockLoading.AlwaysOnDemand => "BiBlock(on-demand)"
    case _: BlockLoading.Learned     => "GraSorw"
  }

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val nB = bg.nBlocks
    val storage = new SkewedWalkStorage(bg)
    val walker = new Walker(bg, task, sim, visits, trace)

    Init.run(walker)(storage.persist)

    // One bucket per ancillary block, reused across time slots.
    val buckets = Array.fill(nB)(new WalkBuffer)

    while (!storage.isEmpty) {
      sim.supersteps += 1
      var b = 0
      while (b < math.max(1, nB - 1)) { // current block iterates 0 .. N_B-2
        if (storage.pools.size(b) > 0) {
          val curWalks = storage.pools.drain(b)
          sim.walkIO(curWalks.length) // load the associated walks (Alg. 1 l.3)

          // Collect buckets (Eq. 4): by the "other" block of the pair.
          var k = 0
          while (k < curWalks.length) {
            val pre = bg.blockOf(curWalks.prev(k))
            buckets(if (pre == b) bg.blockOf(curWalks.cur(k)) else pre).addFrom(curWalks, k)
            k += 1
          }

          // Load the current block (always full — it is shared by all
          // buckets of the slot) and run the triangular ancillary sweep.
          sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
          sim.timeSlots += 1
          var i = b + 1
          while (i < nB) {
            val bucket = buckets(i)
            if (bucket.nonEmpty) {
              val t0  = sim.wallTimeSec
              val eta = BlockLoading.eta(bucket.length, bg.verticesInBlock(i))
              val access = BlockLoading.load(bg, i, policy.mode(i, eta), bucket, sim)
              val mem = new BiBlockEngine.Pair(bg, b, i, access)

              var idx = 0
              while (idx < bucket.length) {
                // UpdateWalk: advance while the walk stays in-memory.
                if (walker.advance(bucket, idx, mem)) {
                  // Walk persistence — Alg. 2 case analysis.
                  val cur = bg.blockOf(bucket.cur(idx))
                  val pre = bg.blockOf(bucket.prev(idx))
                  if (cur < b) { storage.persist(bucket, idx); sim.walkIO(1) }
                  else if (cur < i) { // b < cur < i
                    if (pre == b) { storage.pools.add(b, bucket, idx); sim.walkIO(1) }
                    else { storage.persist(bucket, idx); sim.walkIO(1) }
                  } else { // cur > i
                    if (pre == b) buckets(cur).addFrom(bucket, idx) // bucket-extending (l.14)
                    else { storage.pools.add(i, bucket, idx); sim.walkIO(1) }
                  }
                }
                idx += 1
              }
              bucket.clear()

              if (loadLog != null)
                loadLog.record(i, eta, sim.wallTimeSec - t0)
            }
            i += 1
          }
        }
        b += 1
      }
    }
    walker.finish()
  }
}

object BiBlockEngine {

  /** The current block `b` and ancillary block `i` of a time slot; a step
    * touches its vertices in the ancillary block, which an on-demand load
    * may not have made resident yet.
    */
  private final class Pair(bg: BlockedGraph, b: Int, i: Int, access: BlockLoading.BlockAccess)
      extends Residency {
    def holds(block: Int): Boolean = block == b || block == i
    override def touch(prev: Int, cur: Int): Unit = {
      if (bg.blockOf(cur) == i) access.touch(cur)
      if (prev >= 0 && bg.blockOf(prev) == i) access.touch(prev)
    }
  }
}
