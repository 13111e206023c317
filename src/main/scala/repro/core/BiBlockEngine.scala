package repro.core

import repro.disk.DiskSim
import repro.engine.{Init, TraceCollector, WalkBuffer, WalkEngine, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The bi-block execution engine (§4, Algorithms 1 and 2).
  *
  * Current blocks are scheduled iteratively `0 .. N_B - 2`; within a time
  * slot, ancillary blocks are scheduled triangularly `b+1 .. N_B - 1`
  * (skipping empty buckets, like the iteration-based current schedule skips
  * empty pools). Walks live in the skewed storage (min-block pools), are
  * collected into buckets by Eq. 4, advance while their current vertex stays
  * inside either in-memory block, and are then re-associated (Alg. 2).
  *
  * Alg. 2's case analysis is the skewed storage's own rule plus
  * bucket-extending. A walk that leaves {b, i} stepped last inside the pair,
  * so its previous block is b or i, and its current block is neither. If
  * it moved from b to a block beyond i, it joins that block's bucket in the
  * same sweep (line 14). Every other case (cur < b; b < cur < i from
  * either block; cur > i from i) sends it to pool min(B(pre), B(cur)) —
  * b, cur or i — with one walk I/O, which is `SkewedWalkStorage.persist`.
  * An ancillary load goes through `BlockLoading.load`, which decides its
  * mode from η, charges it and logs its LBL sample.
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
              val mem = BlockLoading.load(bg, b, i, policy, bucket, sim, loadLog)
              var idx = 0
              while (idx < bucket.length) {
                // UpdateWalk: advance while the walk stays in-memory, then
                // persist it (Alg. 2).
                if (walker.advance(bucket, idx, mem)) {
                  val cur = bg.blockOf(bucket.cur(idx))
                  if (cur > i && bg.blockOf(bucket.prev(idx)) == b)
                    buckets(cur).addFrom(bucket, idx) // bucket-extending (l.14)
                  else { storage.persist(bucket, idx); sim.walkIO(1) }
                }
                idx += 1
              }
              bucket.clear()
              mem.logSample()
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
