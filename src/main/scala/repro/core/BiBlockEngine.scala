package repro.core

import repro.disk.DiskSim
import repro.engine.{CurrentBlockDriver, Init, Scheduling, TraceCollector, WalkBuffer, WalkEngine, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The bi-block execution engine (§4, Algorithms 1 and 2): a slot body of
  * the [[CurrentBlockDriver]] under [[Scheduling.Iteration]].
  *
  * Alg. 1 runs the current block `b` over `0 .. N_B - 2`, skipping blocks
  * without walks, superstep after superstep. After `b`, Iteration picks the
  * next non-empty pool cyclically and Alg. 1 the next in `b+1 .. N_B - 2`,
  * else again from 0; the two agree because pool `N_B - 1` is always empty
  * (a walk's home block is the min of two distinct blocks, the Init
  * invariant; with N_B = 1 Init leaves no walk). A slot whose block is not
  * above the previous slot's starts a superstep. Within a slot the
  * ancillary blocks are swept triangularly, `b+1 .. N_B - 1`, skipping
  * empty buckets. Walks live in the skewed storage (min-block pools), are
  * collected into buckets by Eq. 4, advance while their current vertex
  * stays inside either in-memory block, and are then re-associated (Alg. 2).
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
    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, new Scheduling.Iteration)
    val storage = new SkewedWalkStorage(bg, driver.pools)
    Init.run(walker)(storage.persist)

    // One bucket per ancillary block, reused across time slots.
    val buckets = Array.fill(nB)(new WalkBuffer)
    var last = Int.MaxValue // the previous slot's current block
    driver.run { (b, walks) =>
      if (b <= last) sim.supersteps += 1
      last = b
      driver.splitBuckets(b, walks, buckets) // loads the walks and b (Alg. 1 l.3)
      var i = b + 1
      while (i < nB) {
        val bucket = buckets(i)
        if (bucket.nonEmpty) {
          val mem = BlockLoading.load(bg, b, i, policy, bucket, sim, loadLog)
          // UpdateWalk: advance each walk while it stays in memory, then
          // persist the survivors in record order (Alg. 2).
          walker.advanceAll(bucket, mem)
          var idx = 0
          while (idx < bucket.length) {
            if (!bucket.ended(idx)) {
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
  }
}
