package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.DiskSim
import repro.engine.{EngineTestKit, PlainBucketEngine}
import repro.walk.WalkTask
import EngineTestKit._

class BiBlockEngineSpec extends AnyFunSuite {

  private val g = TestGraphs.connected(120, 240, seed = 51)
  private val bg = TestGraphs.blocked(g, 6)
  private def rwnv = WalkTask.rwnv(g, walksPerVertex = 1, len = 20)

  test("all walks complete their full length on a connected graph") {
    val r = runTraced(new BiBlockEngine(), bg, rwnv)
    assert((0 until r.trace.nWalks).forall(r.trace.length(_) == 21))
  }

  test("trajectories are valid walks") {
    val r = runTraced(new BiBlockEngine(), bg, rwnv)
    assertValidTrajectories(bg, rwnv, r.trace)
  }

  test("visit counts equal one per trajectory position") {
    val r = runTraced(new BiBlockEngine(), bg, rwnv)
    assert(r.visits.sum == (0 until r.trace.nWalks).map(r.trace.length(_).toLong).sum)
  }

  test("full-load bi-block engine performs zero vertex I/Os") {
    val r = runTraced(new BiBlockEngine(BlockLoading.AlwaysFull), bg, rwnv)
    assert(r.m.vertexIOCount == 0)
  }

  test("on-demand bi-block engine performs vertex I/Os instead of full block reads") {
    val full = runTraced(new BiBlockEngine(BlockLoading.AlwaysFull), bg, rwnv)
    val od = runTraced(new BiBlockEngine(BlockLoading.AlwaysOnDemand), bg, rwnv)
    assert(od.m.vertexIOCount > 0)
    assert(od.m.blockIOCount < full.m.blockIOCount) // ancillary loads became light I/Os
  }

  test("triangular schedule: per-superstep block I/Os within the Eq. 3 bound") {
    val r = runTraced(new BiBlockEngine(), bg, rwnv)
    val nB = bg.nBlocks
    val bound = (nB + 2) * (nB - 1) / 2 // Eq. 3 per superstep
    // Init contributes at most nB loads once.
    assert(r.m.blockIOCount <= r.m.supersteps * bound + nB,
      s"blockIO=${r.m.blockIOCount} supersteps=${r.m.supersteps} bound=$bound")
  }

  test("bi-block engine needs fewer block I/Os than the plain bucket engine") {
    val bi = runTraced(new BiBlockEngine(), bg, rwnv)
    val pb = runTraced(new PlainBucketEngine, bg, rwnv)
    assert(bi.m.blockIOCount < pb.m.blockIOCount,
      s"bi=${bi.m.blockIOCount} pb=${pb.m.blockIOCount}")
  }

  test("bi-block sequential block I/O fraction beats the plain bucket engine's") {
    val bi = runTraced(new BiBlockEngine(), bg, rwnv)
    val pb = runTraced(new PlainBucketEngine, bg, rwnv)
    val biSeq = bi.m.blockIOSeqCount.toDouble / bi.m.blockIOCount
    val pbSeq = pb.m.blockIOSeqCount.toDouble / pb.m.blockIOCount
    assert(biSeq > pbSeq, s"bi seq-frac $biSeq <= pb seq-frac $pbSeq")
  }

  test("time slots never exceed supersteps x (N_B - 1)") {
    val r = runTraced(new BiBlockEngine(), bg, rwnv)
    assert(r.m.timeSlots <= (r.m.supersteps + 1) * (bg.nBlocks - 1) + bg.nBlocks)
  }

  test("a run makes one lane job for Init and at most one per superstep") {
    val big = TestGraphs.blocked(TestGraphs.connected(3000, 24000, seed = 71), 12)
    for (task <- Seq(WalkTask.rwnv(big.g, walksPerVertex = 1, len = 40), WalkTask.prnv(big.g, seed = 5))) {
      val sim = new DiskSim()
      val m = new BiBlockEngine().run(big, task, sim)
      assert(m.supersteps > 1 && m.timeSlots > m.supersteps + big.nBlocks, task.name)
      assert(sim.laneJobs >= 1 && sim.laneJobs <= m.supersteps + 1, s"${task.name}: ${sim.laneJobs} jobs")
      assert(sim.laneWaitNanos >= 0)
    }
  }

  test("learned policy run matches full/on-demand trajectories and completes") {
    // Train quickly on the same task.
    val learned = LblTrainer.learn(bg.nBlocks)((policy, log) =>
      new BiBlockEngine(policy, log).run(bg, rwnv, new repro.disk.DiskSim()))
    val lr = runTraced(new BiBlockEngine(learned), bg, rwnv)
    val fr = runTraced(new BiBlockEngine(), bg, rwnv)
    assert(corpus(lr.trace) == corpus(fr.trace))
  }

  test("PRNV walk lengths follow the decay (mean near E[min(Geom, cap)])") {
    val task = WalkTask.prnv(g, nQueries = 5)
    val r = runTraced(new BiBlockEngine(), bg, task)
    val lengths = (0 until r.trace.nWalks).map(r.trace.length(_) - 1)
    val mean = lengths.sum.toDouble / lengths.length
    val expected = (1 - math.pow(0.85, 20)) / 0.15
    assert(math.abs(mean - expected) < 0.35, s"mean $mean expected $expected")
  }

  test("engine name reflects the policy") {
    assert(new BiBlockEngine(BlockLoading.AlwaysFull).name == "BiBlock(full)")
    assert(new BiBlockEngine(new BlockLoading.Learned(Array(0.1))).name == "GraSorw")
  }

  test("single-walk task completes") {
    val task = WalkTask("one", repro.walk.Node2vecModel(1, 1), Array((5, 1)), 30, 0.0, 99)
    val r = runTraced(new BiBlockEngine(), bg, task)
    assert(r.trace.length(0) == 31)
  }

  test("zero-walk task terminates immediately") {
    val task = WalkTask("none", repro.walk.Node2vecModel(1, 1), Array.empty, 10, 0.0, 99)
    val m = new BiBlockEngine().run(bg, task, new repro.disk.DiskSim())
    assert(m.steps == 0 && m.blockIOCount == 0)
  }

  test("walks starting on dangling vertices terminate at the source") {
    val dg = TestGraphs.er(60, 70, seed = 52)
    val dbg = TestGraphs.blocked(dg, 4)
    val task = WalkTask.rwnv(dg, walksPerVertex = 1, len = 10)
    val r = runTraced(new BiBlockEngine(), dbg, task)
    for (v <- 0 until dg.nV if dg.degree(v) == 0)
      assert(r.trace.path(v).toSeq == Seq(v))
  }
}
