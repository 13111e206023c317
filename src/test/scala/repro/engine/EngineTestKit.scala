package repro.engine

import repro.core.{BiBlockEngine, BlockLoading}
import repro.disk.{CostModel, DiskSim}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** Shared helpers for the engine test suites. */
object EngineTestKit {

  final case class RunResult(m: DiskSim.Metrics, trace: TraceCollector, visits: Array[Long])

  def runTraced(engine: WalkEngine, bg: BlockedGraph, task: WalkTask): RunResult = {
    val trace = new TraceCollector(task.totalWalks.toInt)
    val visits = new Array[Long](bg.g.nV)
    val m = engine.run(bg, task, new DiskSim(CostModel.paperSsd), visits, trace)
    RunResult(m, trace, visits)
  }

  /** All engines that must produce identical trajectories on second-order
    * (and first-order) tasks.
    */
  def secondOrderEngines: Seq[WalkEngine] = Seq(
    new BiBlockEngine(BlockLoading.AlwaysFull),
    new BiBlockEngine(BlockLoading.AlwaysOnDemand),
    new PlainBucketEngine,
    new SogwEngine(staticCache = false),
    new SogwEngine(staticCache = true),
  )

  def firstOrderEngines: Seq[WalkEngine] = Seq(
    new FirstOrderEngine(new Scheduling.GraphWalkerMix()),
    new FirstOrderEngine(new Scheduling.Iteration),
    new FirstOrderEngine(new Scheduling.Alphabet),
    new FirstOrderEngine(new Scheduling.MinHeight),
    new FirstOrderEngine(new Scheduling.MaxSum),
    new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysOnDemand),
  )

  /** The skewed storage's invariants (§4.3.1): every walk in `pools` sits in
    * pool min(B(prev), B(cur)) and never has both vertices in one block.
    */
  def checkInvariants(bg: BlockedGraph, pools: WalkPools): Unit =
    for (b <- 0 until bg.nBlocks) {
      val pool = pools.pool(b)
      for (k <- 0 until pool.length) {
        val pb = bg.blockOf(pool.prev(k)); val cb = bg.blockOf(pool.cur(k))
        require(pb != cb, s"walk ${pool.id(k)} has prev and cur in the same block $pb")
        require(math.min(pb, cb) == b, s"walk ${pool.id(k)} in pool $b but min($pb,$cb)")
      }
    }

  /** Every trajectory of a sealed corpus, in walk order. */
  def corpus(trace: TraceCollector): Seq[Seq[Int]] = (0 until trace.nWalks).map(trace.path(_).toSeq)

  /** Assert each trajectory is a valid walk of the graph and task. */
  def assertValidTrajectories(bg: BlockedGraph, task: WalkTask, trace: TraceCollector): Unit = {
    val g = bg.g
    (0 until trace.nWalks).foreach { id =>
      val path = trace.path(id)
      assert(path.nonEmpty, s"walk $id has no trace")
      assert(path.length <= task.maxLen + 1, s"walk $id too long: ${path.length}")
      var i = 0
      while (i + 1 < path.length) {
        assert(g.hasEdge(path(i), path(i + 1)),
          s"walk $id invalid step ${path(i)}->${path(i + 1)}")
        i += 1
      }
      // A walk may only end early if stuck on a dangling vertex or stopped
      // by the task's per-step termination draw.
      if (path.length < task.maxLen + 1) {
        val endsStuck = g.degree(path.last) == 0
        val stopped = task.stopProb > 0 && task.stopsAfter(id.toLong, path.length - 1)
        assert(endsStuck || stopped, s"walk $id ended early at hop ${path.length - 1}")
      }
    }
  }
}
