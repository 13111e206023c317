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

    // First-order walks need no initialization pass: they start when their
    // source block first becomes the current block (GraphWalker behavior).
    var nextId = 0L
    task.starts.foreach { case (v, count) =>
      val pool = driver.pools.pool(bg.blockOf(v))
      var k = 0
      while (k < count) {
        walker.start(nextId, v, pool)
        nextId += 1
        k += 1
      }
    }

    // An LBL sample's time covers the whole slot: block load, walk read, steps.
    driver.run { (b, walks) =>
      walker.advanceAll(walks, b, Walker.Fixed, marks = policy ne BlockLoading.AlwaysFull)
      driver.chargeBucket(b, policy, loadLog, reads = walks.length)
      walks.persistSurvivors(driver.add)
    }
  }
}
