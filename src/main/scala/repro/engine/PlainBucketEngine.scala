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
  *   - current walks are split into buckets by their *previous* block
  *     (`CurrentBlockDriver.splitBuckets`: a pooled walk's previous vertex
  *     lies outside its current block, so it is the pair's other block);
  *   - ancillary blocks are scheduled 0 .. N_B-1 (the jump back to b₀ after
  *     loading the current block is the random block I/O that §7.3 contrasts
  *     with the triangular schedule's sequential loads);
  *   - walks advance while inside either in-memory block, then are written
  *     back to their new current block's pool.
  */
final class PlainBucketEngine extends WalkEngine {
  def name: String = "PB"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val nB = bg.nBlocks
    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, new Scheduling.GraphWalkerMix())
    Init.run(walker)(driver.add)

    // One bucket per ancillary block, reused across time slots.
    val buckets = Array.fill(nB)(new WalkBuffer)
    driver.run { (b, walks) =>
      driver.splitBuckets(b, walks, buckets)
      for (i <- 0 until nB if i != b && buckets(i).nonEmpty) {
        driver.advanceAll(buckets(i), BlockLoading.load(bg, b, i, BlockLoading.AlwaysFull, buckets(i), sim))
        buckets(i).clear()
      }
    }
  }
}
