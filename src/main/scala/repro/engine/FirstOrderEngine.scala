package repro.engine

import repro.core.{BlockLoading, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** GraphWalker-style first-order engine (§7.8, Appendix A).
  *
  * One block is resident at a time; walks advance asynchronously while their
  * current vertex stays inside it and are re-associated with the block they
  * move into. The current-block scheduling strategy is pluggable (the five
  * strategies of Appendix A), and current-block loads optionally go through
  * the learning-based loading model — that is the "GraSorw" first-order
  * configuration of Table 7, versus "GraSorw-No-LBL" (iteration scheduling,
  * pure full load) and "GraphWalker" (state-aware scheduling, full load).
  * Under Iteration the driver runs a superstep per lane job, and a walk
  * that moves into a block later in the pass steps on there at once; under
  * the other strategies it runs a slot per job. Either way each slot is
  * charged as one bucket of its own block, with its walk read.
  */
final class FirstOrderEngine(
    scheduling: Scheduling,
    policy: BlockLoading.Policy = BlockLoading.AlwaysFull,
    loadLog: LoadLogCollector = null,
) extends WalkEngine {

  def name: String = s"FirstOrder(${scheduling.strategyName})"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    require(!task.model.isSecondOrder,
      "FirstOrderEngine only supports first-order models; use the bi-block engine")
    val walker = new Walker(bg, task, sim, visits, trace)
    val driver = new CurrentBlockDriver(walker, scheduling)

    // First-order walks need no initialization pass: each is pooled at its
    // source block, not yet started, and starts when the lane that first
    // steps it writes its source (GraphWalker behavior).
    var nextId = 0L
    task.starts.foreach { case (v, count) =>
      val pool = driver.pools.pool(bg.blockOf(v)).part(0)
      var k = 0
      while (k < count) {
        pool.add(nextId, 0, -1, v)
        nextId += 1
        k += 1
      }
    }

    // An LBL sample's time covers the whole slot: block load, walk read, steps.
    driver.run(Walker.Fixed, marks = policy ne BlockLoading.AlwaysFull) { (b, _) =>
      driver.chargeBucket(b, b, policy, loadLog, reads = walker.reads(b))
    }
  }
}
