package repro.engine

import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** A disk-based random-walk engine. Implementations:
  *
  *   - [[repro.core.BiBlockEngine]] — the paper's contribution (Alg. 1+2)
  *   - [[SogwEngine]] — SOGW / SGSC baselines (§7.1)
  *   - [[PlainBucketEngine]] — the PB engine of §7.3
  *   - [[FirstOrderEngine]] — GraphWalker-style first-order engine (§7.8)
  *
  * All engines charge I/O and execution to the supplied [[DiskSim]] and
  * start and advance walks through one [[Walker]], so trajectories are
  * engine-invariant; an engine differs in which blocks it holds while a walk
  * steps (the bucket rule of `Walker.advanceAll`) and what it charges for
  * them. The bi-block, PB and first-order engines charge each block load
  * through `BlockLoading.load`, the one call that picks a block's load mode
  * from η and charges it; SOGW/SGSC charge their previous-vertex I/Os
  * themselves.
  * Walks are 128-bit records in [[WalkPools]]: `Walker.advanceAll` steps
  * every record of a time slot's pool, spread over the [[Lanes]], and
  * tallies per bucket what the engine charges afterwards; the lane that
  * steps a walk appends it, if it did not end, to its own part of the pool
  * the pools' rule names. Lanes share no state: each counts, logs, marks
  * and pools into its own buffers, and the engine reads only their sums,
  * minima and unions, so a run's counts, corpus and visits are the
  * single-threaded ones whatever lane takes a walk. Every engine runs on one current-block loop, the
  * [[CurrentBlockDriver]], and differs in its strategy, pool rule and slot
  * body. An engine instance keeps no state between runs.
  */
trait WalkEngine {
  def name: String

  /** Run `task` to completion over `bg`. Implementations return
    * `Walker.finish()`, so a given corpus comes back sealed.
    *
    * @param visits optional per-vertex visit accumulator (PRNV estimates)
    * @param trace  optional walk corpus (RWNV/DeepWalk output), holding at
    *               least `task.totalWalks` walks
    */
  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics
}
