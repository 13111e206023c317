package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.walk.WalkTask

/** Pins the first-order engine's learning-based loading path (§5, Table 7's
  * "GraSorw" first-order configuration): the `(block, η, t)` sample of every
  * current-block load of a full-load and an on-demand Iteration run, and
  * the metrics of those two runs and of the run under the policy
  * `LblTrainer` learns from them. A sample's `t` is the simulated time of
  * the whole time slot, walk read included: the difference of the run's
  * priced wall time after and before the slot. Times are priced from
  * counts, so only a changed count moves a pin, for instance a charge moved
  * into or out of a slot; reordering charges within a slot cannot.
  * Doubles are `java.lang.Double.toHexString`; metrics rows have
  * `MetricsPinSpec`'s layout.
  */
class FirstOrderLblPinSpec extends AnyFunSuite {
  private def hex(d: Double) = java.lang.Double.toHexString(d)

  private def fmt(m: DiskSim.Metrics): String =
    Seq(hex(m.wallTimeSec), hex(m.execTimeSec), m.blockIOCount, m.blockIOSeqCount,
        hex(m.blockIOTimeSec), m.vertexIOCount, hex(m.vertexIOTimeSec), hex(m.walkIOTimeSec),
        hex(m.cacheInitTimeSec), m.steps, m.timeSlots, m.supersteps).mkString(" ")

  private def samples(log: LoadLogCollector): Seq[String] =
    log.samples.toSeq.map(s => s"${s.block} ${hex(s.eta)} ${hex(s.timeSec)}")

  private val fullMetrics = "0x1.502883cf24626p-7 0x1.4f8b588e368fp-15 32 22 0x1.4e717d1addd1ep-7 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 32 0"
  private val onDemandMetrics = "0x1.66f6955954406p-10 0x1.4f8b588e368fp-15 0 0 0x0.0p0 439 0x1.593e5fb71fbc6p-10 0x1.9ded6ee167c21p-17 0x0.0p0 1600 32 0"
  private val learnedMetrics = "0x1.73f2c0fd35cb4p-9 0x1.4f8b588e368fp-15 2 0 0x1.a3894b5c8e902p-10 395 0x1.36a400fba8827p-10 0x1.9ded6ee167c21p-17 0x0.0p0 1600 32 0"

  private val fullSamples = Seq(
    "0 0x1.0p0 0x1.a3b7bbd4be192p-11",
    "1 0x1.1eb851eb851ecp0 0x1.aec1490b0bcc8p-14",
    "2 0x1.147ae147ae148p0 0x1.af512aaec4118p-14",
    "3 0x1.0aaaaaaaaaaabp0 0x1.ac5170faadcbp-14",
    "0 0x1.ap3 0x1.a54aa7c3fec8p-11",
    "1 0x1.0p0 0x1.ad939059eea2p-14",
    "2 0x1.28f5c28f5c28fp0 0x1.aeed4f098eb2p-14",
    "3 0x1.2aaaaaaaaaaabp0 0x1.ade1f27041d2p-14",
    "0 0x1.9aaaaaaaaaaabp3 0x1.a58ef8df57f28p-11",
    "1 0x1.1eb851eb851ecp0 0x1.ad40e2c0a168p-14",
    "2 0x1.47ae147ae147bp-1 0x1.ab89b9b04304p-14",
    "3 0x1.8p0 0x1.af274a71be36p-14",
    "0 0x1.ap3 0x1.a57be9ca2267cp-11",
    "1 0x1.3d70a3d70a3d7p0 0x1.ae8b9925d654p-14",
    "2 0x1.c28f5c28f5c29p-1 0x1.aad33071c064p-14",
    "3 0x1.0aaaaaaaaaaabp0 0x1.ae750cb635a4p-14",
    "0 0x1.5p3 0x1.a52890645e1a8p-11",
    "1 0x1.47ae147ae147bp-1 0x1.a7c35b92807cp-14",
    "2 0x1.999999999999ap-1 0x1.a9f5ff98737cp-14",
    "3 0x1.eaaaaaaaaaaabp-1 0x1.aae6843f259p-14",
    "0 0x1.cp2 0x1.a47ce64964678p-11",
    "1 0x1.ae147ae147ae1p-1 0x1.ab0381f33d58p-14",
    "2 0x1.1eb851eb851ecp-1 0x1.a8d4168f85e4p-14",
    "3 0x1.2aaaaaaaaaaabp-2 0x1.a5f047aec8ep-14",
    "0 0x1.aaaaaaaaaaaabp1 0x1.a403f82994458p-11",
    "1 0x1.eb851eb851eb8p-4 0x1.a4f83ee2e12cp-14",
    "2 0x1.eb851eb851eb8p-3 0x1.a573b9d875c4p-14",
    "3 0x1.aaaaaaaaaaaabp-3 0x1.a5b426851c58p-14",
    "0 0x1.2aaaaaaaaaaabp0 0x1.a3ac97f9058fp-11",
    "2 0x1.47ae147ae147bp-4 0x1.a39339fb70c8p-11",
    "3 0x1.5555555555555p-4 0x1.a50b92b04658p-14",
    "0 0x1.5555555555555p-3 0x1.a38db93ba06ap-11",
  )

  private val onDemandSamples = Seq(
    "0 0x1.0p0 0x1.33cb7852bbd37p-16",
    "1 0x1.1eb851eb851ecp0 0x1.450cd80847d5bp-14",
    "2 0x1.147ae147ae148p0 0x1.459cb9ac001b1p-14",
    "3 0x1.0aaaaaaaaaaabp0 0x1.36105d455574ap-14",
    "0 0x1.ap3 0x1.017f28768e1ep-16",
    "1 0x1.0p0 0x1.118a387508e3p-14",
    "2 0x1.28f5c28f5c28fp0 0x1.f37307673018p-15",
    "3 0x1.2aaaaaaaaaaabp0 0x1.1e766b49d89ap-14",
    "0 0x1.9aaaaaaaaaaabp3 0x1.6eb319a5f6fep-16",
    "1 0x1.1eb851eb851ecp0 0x1.11378adbbba84p-14",
    "2 0x1.47ae147ae147bp-1 0x1.02eb2812d4d5p-14",
    "3 0x1.8p0 0x1.2c50fd03dd6b8p-14",
    "0 0x1.ap3 0x1.6c5136ff459ap-16",
    "1 0x1.3d70a3d70a3d7p0 0x1.3841ee6a89ea8p-14",
    "2 0x1.c28f5c28f5c29p-1 0x1.1b5f1245631c8p-14",
    "3 0x1.0aaaaaaaaaaabp0 0x1.2b9ebf4854d88p-14",
    "0 0x1.5p3 0x1.61e60a46bc0cp-16",
    "1 0x1.47ae147ae147bp-1 0x1.674adf43bf3fp-15",
    "2 0x1.999999999999ap-1 0x1.01576dfb05438p-14",
    "3 0x1.eaaaaaaaaaaabp-1 0x1.eb769fde460cp-15",
    "0 0x1.cp2 0x1.1a1be00563cp-16",
    "1 0x1.ae147ae147ae1p-1 0x1.eb9f6d3a8d68p-15",
    "2 0x1.1eb851eb851ecp-1 0x1.003584f217b6p-14",
    "3 0x1.2aaaaaaaaaaabp-2 0x1.cbc348a5c76p-16",
    "0 0x1.aaaaaaaaaaaabp1 0x1.3d5302ed815cp-16",
    "1 0x1.eb851eb851eb8p-4 0x1.fcda5baba258p-17",
    "2 0x1.eb851eb851eb8p-3 0x1.6504e770672p-16",
    "3 0x1.aaaaaaaaaaaabp-3 0x1.cad2c3ff154p-16",
    "0 0x1.2aaaaaaaaaaabp0 0x1.b5f3d3880e2p-19",
    "2 0x1.47ae147ae147bp-4 0x1.979e8682297p-18",
    "3 0x1.5555555555555p-4 0x1.fdb9b2466c58p-17",
    "0 0x1.5555555555555p-3 0x1.97151622e84p-19",
  )

  test("first-order LBL load logs and metrics are pinned (wheel, DeepWalk)") {
    val bg = TestGraphs.blocked(TestGraphs.wheel(80), 4)
    val task = WalkTask.deepwalk(bg.g, walksPerVertex = 1, len = 20)
    val fullLog = new LoadLogCollector
    val odLog = new LoadLogCollector
    val full = new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysFull, fullLog)
      .run(bg, task, new DiskSim())
    val onDemand = new FirstOrderEngine(new Scheduling.Iteration, BlockLoading.AlwaysOnDemand, odLog)
      .run(bg, task, new DiskSim())
    val learned = new FirstOrderEngine(new Scheduling.Iteration, LblTrainer.train(bg.nBlocks, fullLog, odLog))
      .run(bg, task, new DiskSim())
    assert(samples(fullLog) == fullSamples)
    assert(samples(odLog) == onDemandSamples)
    assert(fmt(full) == fullMetrics)
    assert(fmt(onDemand) == onDemandMetrics)
    assert(fmt(learned) == learnedMetrics)
  }
}
