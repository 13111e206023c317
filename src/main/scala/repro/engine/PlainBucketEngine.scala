package repro.engine

import repro.core.BlockLoading
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The plain bucket engine (PB, §7.3) — the ablation of the bi-block engine
  * without the triangular schedule, the skewed storage, and the
  * bucket-extending rule:
  *
  *   - walks are associated with their *current* block (traditional storage);
  *   - the current block is chosen by GraphWalker's state-aware strategy;
  *   - current walks fall into buckets by their *previous* block
  *     (`Walker.Pairs`: a pooled walk's previous vertex lies outside its
  *     current block, so it is the pair's other block);
  *   - ancillary blocks are charged 0 .. N_B-1 (the jump back to b₀ after
  *     loading the current block is the random block I/O that §7.3 contrasts
  *     with the triangular schedule's sequential loads), each in full;
  *   - walks advance while inside either in-memory block, in one lane job
  *     per slot (GraphWalker's mix picks a slot by pool sizes), and each
  *     that leaves memory goes to its new current block's pool.
  */
final class PlainBucketEngine extends WalkEngine {
  def name: String = "PB"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, new Scheduling.GraphWalkerMix())
    Init.run(walker, driver.pools)
    driver.run(Walker.Pairs, marks = false) { (b, _) =>
      driver.chargeBuckets(b, BlockLoading.AlwaysFull, null)
    }
  }
}
