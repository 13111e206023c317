package repro.core

import repro.disk.DiskSim
import repro.engine.{CurrentBlockDriver, Init, Scheduling, TraceCollector, WalkEngine, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** The bi-block execution engine (§4, Algorithms 1 and 2): slot charges of
  * the [[CurrentBlockDriver]] under [[Scheduling.Iteration]].
  *
  * Alg. 1 runs the current block `b` over `0 .. N_B - 2`, skipping blocks
  * without walks, superstep after superstep. After `b`, Iteration picks the
  * next non-empty pool cyclically and Alg. 1 the next in `b+1 .. N_B - 2`,
  * else again from 0; the two agree because pool `N_B - 1` is always empty
  * (a walk's home block is the min of two distinct blocks, the Init
  * invariant; with N_B = 1 Init leaves no walk). A slot whose block is not
  * above the previous slot's starts a superstep. Walks live in the skewed
  * storage (min-block pools).
  *
  * A superstep runs as one lane job under `Walker.Extending`
  * (`Walker.advanceSuperstep`): each walk starts in slot `b` of its pool,
  * in the bucket of its pair's other block (Eq. 4), and advances while its
  * current vertex stays inside `b` or that block. A walk that leaves
  * {b, i} stepped last inside the pair, so its previous block is b or i,
  * and its current block is neither. If it moved from b to a block j beyond
  * i, it goes on at once in bucket j (bucket-extending, line 14). Every
  * other case (cur < b; b < cur < i from either block; cur > i from i)
  * stops it in this slot, charged one walk I/O, and its home is
  * min(B(pre), B(cur)) — b, cur or i — the skewed storage's rule
  * (`WalkPools.home`). A home above `b` is a later slot of this superstep,
  * and the lane that stepped the walk runs it on there at once, charged one
  * walk read in that slot; any other home is a pool of the next superstep,
  * where the lane appends the walk to its own part.
  * After the job each slot is charged in ascending order
  * (`CurrentBlockDriver.chargeBuckets`): its walk read and block `b`, then
  * the ancillary blocks triangularly, `b+1 .. N_B - 1`, skipping empty
  * buckets, each through `BlockLoading.load`, which decides its mode from η
  * and charges it; with the bucket's steps and walk I/O it makes the load's
  * LBL sample. Every charge of a bucket is a count over the walks that pass
  * through it, so it equals the bucket-by-bucket, slot-by-slot order's.
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
    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, new Scheduling.Iteration, skewed = true)
    Init.run(walker, driver.pools)

    var last = Int.MaxValue // the previous slot's current block
    // Alg. 1 l.3–l.9 and Alg. 2's UpdateWalk: a superstep per lane job, each
    // lane routing the survivors it steps to their home pools or on in this
    // superstep; then each slot is charged in order.
    driver.run(Walker.Extending, marks = policy ne BlockLoading.AlwaysFull) { (b, _) =>
      if (b <= last) sim.supersteps += 1
      last = b
      driver.chargeBuckets(b, policy, loadLog)
    }
  }
}
