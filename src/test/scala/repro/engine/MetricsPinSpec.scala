package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask
import EngineTestKit._

/** Pins the event counts of `DiskSim.Metrics` and the times priced from all
  * of its counts, bit for bit, for every engine of the test kit plus a
  * `BiBlockEngine` with an LBL-learned policy. Times are a pure function of
  * the counts, so only a changed count moves a pin; a change to walk
  * storage, bucketing or processing order that merely reorders charges
  * cannot. For the same reason every second-order engine, and every
  * first-order engine, has the same execution time on one task: they take
  * the same steps. On `connected` it also pins the `(block, η, t)` sample
  * of every ancillary load of the two BiBlock runs the learned policy is
  * trained on.
  *
  * Each row is `wallTimeSec execTimeSec blockIOCount blockIOSeqCount
  * blockIOTimeSec vertexIOCount vertexIOTimeSec walkIOTimeSec
  * cacheInitTimeSec steps timeSlots supersteps`, doubles printed with
  * `java.lang.Double.toHexString`.
  */
class MetricsPinSpec extends AnyFunSuite {
  private def hex(d: Double) = java.lang.Double.toHexString(d)

  private def fmt(m: DiskSim.Metrics): String =
    Seq(hex(m.wallTimeSec), hex(m.execTimeSec), m.blockIOCount, m.blockIOSeqCount,
        hex(m.blockIOTimeSec), m.vertexIOCount, hex(m.vertexIOTimeSec), hex(m.walkIOTimeSec),
        hex(m.cacheInitTimeSec), m.steps, m.timeSlots, m.supersteps).mkString(" ")

  private def assertOneExecTime(runs: Seq[(String, DiskSim.Metrics)]): Unit =
    assert(runs.map(_._2.execTimeSec).distinct.size == 1, runs.map { case (n, m) => s"$n ${m.execTimeSec}" })

  private val graphs = Seq(
    "connected" -> TestGraphs.blocked(TestGraphs.connected(150, 300, seed = 61), 6),
    "ring" -> TestGraphs.blocked(TestGraphs.ring(60), 5),
    "wheel" -> TestGraphs.blocked(TestGraphs.wheel(80), 4),
  )

  /** GraSorw's configuration: thresholds trained on one full-load and one
    * on-demand run of the same task (simulated times, so deterministic).
    */
  private def learned(bg: BlockedGraph, task: WalkTask): WalkEngine =
    new BiBlockEngine(LblTrainer.learn(bg.nBlocks)(profile(bg, task)))

  /** One profiling run of `learned`: a BiBlock run under `policy` logging
    * its ancillary loads into `log`.
    */
  private def profile(bg: BlockedGraph, task: WalkTask)(policy: BlockLoading.Policy, log: LoadLogCollector): Unit =
    new BiBlockEngine(policy, log).run(bg, task, new DiskSim())

  private def samples(log: LoadLogCollector): Seq[String] =
    log.samples.toSeq.map(s => s"${s.block} ${hex(s.eta)} ${hex(s.timeSec)}")

  /** (graph, task, engine index) -> metrics row. Second-order engine index
    * 0-4 is `secondOrderEngines`, 5 the learned BiBlock; first-order index
    * 0-5 is `firstOrderEngines`.
    */
  private val pinned: Map[(String, String, Int), String] = Map(
    ("connected", "RWNV", 0) -> "0x1.ad737d7293e8bp-6 0x1.42720cda25724p-14 86 61 0x1.ac1bdf260d276p-6 0 0x0.0p0 0x1.52c3fac9bdd74p-18 0x0.0p0 3000 29 6", // BiBlock(full)
    ("connected", "RWNV", 1) -> "0x1.56755cf95541p-6 0x1.42720cda25724p-14 29 5 0x1.42ee1140194abp-6 370 0x1.22fad6cb53501p-10 0x1.52c3fac9bdd74p-18 0x0.0p0 3000 29 6", // BiBlock(on-demand)
    ("connected", "RWNV", 2) -> "0x1.c395d99b92425p-5 0x1.42720cda25724p-14 123 62 0x1.c2e85cf62535dp-5 0 0x0.0p0 0x1.8873dfff3735dp-18 0x0.0p0 3000 32 0", // PB
    ("connected", "RWNV", 3) -> "0x1.d3f8d8995eb65p-5 0x1.42720cda25724p-14 71 5 0x1.b4d5a0c2131bap-5 1233 0x1.e4d5d80e496eep-9 0x1.a50a7fcf87d6fp-16 0x0.0p0 3000 71 0", // SOGW
    ("connected", "RWNV", 4) -> "0x1.d4532cb3f9528p-5 0x1.42720cda25724p-14 71 5 0x1.b4d5a0c2131bap-5 980 0x1.815a07b352a84p-9 0x1.a50a7fcf87d6fp-16 0x1.a484481282278p-11 3000 71 0", // SGSC
    ("connected", "RWNV", 5) -> "0x1.6397e95a1005bp-6 0x1.42720cda25724p-14 31 6 0x1.51afda119da61p-6 337 0x1.09070fbeb9e49p-10 0x1.52c3fac9bdd74p-18 0x0.0p0 3000 29 6", // GraSorw
    ("connected", "PRNV", 0) -> "0x1.10502f26e5f13p-6 0x1.96873ec3cd2e4p-14 53 37 0x1.0ea2e7ee5db89p-6 0 0x0.0p0 0x1.6bff9c46b6e27p-18 0x0.0p0 3797 16 3", // BiBlock(full)
    ("connected", "PRNV", 1) -> "0x1.8cd98a9ce7dcfp-7 0x1.96873ec3cd2e4p-14 16 2 0x1.75bca78811287p-7 201 0x1.3c254a3c64346p-11 0x1.6bff9c46b6e27p-18 0x0.0p0 3797 16 3", // BiBlock(on-demand)
    ("connected", "PRNV", 2) -> "0x1.79ed31388a9f9p-5 0x1.96873ec3cd2e4p-14 89 36 0x1.79159d179fd13p-5 0 0x0.0p0 0x1.8a10311cfad9fp-18 0x0.0p0 3797 24 0", // PB
    ("connected", "PRNV", 3) -> "0x1.8c0ae6bc4bc61p-5 0x1.96873ec3cd2e4p-14 57 2 0x1.6a3f74093c3edp-5 1335 0x1.0678c0053e2d6p-8 0x1.88b8982ed7d13p-16 0x0.0p0 3797 57 0", // SOGW
    ("connected", "PRNV", 4) -> "0x1.8e23ec57fd4e1p-5 0x1.96873ec3cd2e4p-14 57 2 0x1.6a3f74093c3edp-5 1153 0x1.c560c7c0f4518p-9 0x1.88b8982ed7d13p-16 0x1.a484481282278p-11 3797 57 0", // SGSC
    ("connected", "PRNV", 5) -> "0x1.8cd98a9ce7dcfp-7 0x1.96873ec3cd2e4p-14 16 2 0x1.75bca78811287p-7 201 0x1.3c254a3c64346p-11 0x1.6bff9c46b6e27p-18 0x0.0p0 3797 16 3", // GraSorw
    ("connected", "DeepWalk", 0) -> "0x1.54f7476385a54p-5 0x1.3a92a30553261p-14 58 7 0x1.5421db1c1ae8cp-5 0 0x0.0p0 0x1.c117af4097414p-16 0x0.0p0 3000 58 0", // FirstOrder(GraphWalker)
    ("connected", "DeepWalk", 1) -> "0x1.be5c01efaa83ap-7 0x1.3a92a30553261p-14 58 47 0x1.bb0650d1ff91bp-7 0 0x0.0p0 0x1.c117af4097414p-16 0x0.0p0 3000 58 0", // FirstOrder(Iteration)
    ("connected", "DeepWalk", 2) -> "0x1.aab5c3125b43cp-7 0x1.3a92a30553261p-14 59 49 0x1.a76011f4b051dp-7 0 0x0.0p0 0x1.c117af4097414p-16 0x0.0p0 3000 59 0", // FirstOrder(Alphabet)
    ("connected", "DeepWalk", 3) -> "0x1.c48e57fa9b6fcp-6 0x1.3a92a30553261p-14 58 27 0x1.c2e37f6bc5f6dp-6 0 0x0.0p0 0x1.c117af4097414p-16 0x0.0p0 3000 58 0", // FirstOrder(Min-Height)
    ("connected", "DeepWalk", 4) -> "0x1.2644c0d7d49b5p-5 0x1.3a92a30553261p-14 57 14 0x1.256f549069dedp-5 0 0x0.0p0 0x1.c117af4097414p-16 0x0.0p0 3000 57 0", // FirstOrder(Max-Sum)
    ("connected", "DeepWalk", 5) -> "0x1.8d1e24f2ed61bp-9 0x1.3a92a30553261p-14 0 0 0x0.0p0 976 0x1.7fc7607c419ap-9 0x1.c117af4097414p-16 0x0.0p0 3000 58 0", // FirstOrder(Iteration)
    ("ring", "RWNV", 0) -> "0x1.710ecfc060f29p-8 0x1.fb24457c027c4p-16 14 8 0x1.6f11ca71978bdp-8 0 0x0.0p0 0x1.e1094d643f784p-24 0x0.0p0 1200 9 1", // BiBlock(full)
    ("ring", "RWNV", 1) -> "0x1.2428edf9b1f7p-8 0x1.fb24457c027c4p-16 9 4 0x1.2066ec8cf5603p-8 9 0x1.c4fc1df3300dep-16 0x1.e1094d643f784p-24 0x0.0p0 1200 9 1", // BiBlock(on-demand)
    ("ring", "RWNV", 2) -> "0x1.697cfe24d5efcp-7 0x1.fb24457c027c4p-16 19 6 0x1.687e7b7d713c6p-7 0 0x0.0p0 0x1.e1094d643f784p-24 0x0.0p0 1200 10 0", // PB
    ("ring", "RWNV", 3) -> "0x1.20a94ea99779cp-5 0x1.fb24457c027c4p-16 49 6 0x1.1ebfec9d2a507p-5 67 0x1.a5870da5daf08p-13 0x1.1d9d85f385af7p-19 0x0.0p0 1200 60 0", // SOGW
    ("ring", "RWNV", 4) -> "0x1.26e6041198bffp-5 0x1.fb24457c027c4p-16 49 6 0x1.1ebfec9d2a507p-5 54 0x1.53bd1676640a7p-13 0x1.1d9d85f385af7p-19 0x1.a39fd7cc2f431p-11 1200 60 0", // SGSC
    ("ring", "RWNV", 5) -> "0x1.2428edf9b1f7p-8 0x1.fb24457c027c4p-16 9 4 0x1.2066ec8cf5603p-8 9 0x1.c4fc1df3300dep-16 0x1.e1094d643f784p-24 0x0.0p0 1200 9 1", // GraSorw
    ("ring", "PRNV", 0) -> "0x1.671e043d75832p-9 0x1.488654e3f516fp-15 6 3 0x1.61f3dd5450dc9p-9 0 0x0.0p0 0x1.01b2b29a4692bp-22 0x0.0p0 1556 5 1", // BiBlock(full)
    ("ring", "PRNV", 1) -> "0x1.ffa54840b9ee3p-10 0x1.488654e3f516fp-15 5 3 0x1.f22bac004e848p-10 4 0x1.92a737110e454p-17 0x1.01b2b29a4692bp-22 0x0.0p0 1556 5 1", // BiBlock(on-demand)
    ("ring", "PRNV", 2) -> "0x1.0b5dea069298p-9 0x1.488654e3f516fp-15 6 4 0x1.0633c31d6df17p-9 0 0x0.0p0 0x1.01b2b29a4692bp-22 0x0.0p0 1556 5 0", // PB
    ("ring", "PRNV", 3) -> "0x1.17600979273dap-9 0x1.488654e3f516fp-15 6 4 0x1.0633c31d6df17p-9 30 0x1.797cc39ffd60fp-14 0x1.f237594c664eep-20 0x0.0p0 1556 17 0", // SOGW
    ("ring", "PRNV", 4) -> "0x1.747c194f33236p-9 0x1.488654e3f516fp-15 6 4 0x1.0633c31d6df17p-9 0 0x0.0p0 0x1.f237594c664eep-20 0x1.a39fd7cc2f431p-11 1556 17 0", // SGSC
    ("ring", "PRNV", 5) -> "0x1.671e043d75832p-9 0x1.488654e3f516fp-15 6 3 0x1.61f3dd5450dc9p-9 0 0x0.0p0 0x1.01b2b29a4692bp-22 0x0.0p0 1556 5 1", // GraSorw
    ("ring", "DeepWalk", 0) -> "0x1.87075b3e1437dp-7 0x1.f75104d551d68p-16 21 7 0x1.85fd7899cd4ebp-7 0 0x0.0p0 0x1.c7443b8805366p-20 0x0.0p0 1200 21 0", // FirstOrder(GraphWalker)
    ("ring", "DeepWalk", 1) -> "0x1.5d815cd94146bp-8 0x1.f75104d551d68p-16 18 13 0x1.5b6d9790b3749p-8 0 0x0.0p0 0x1.c7443b8805366p-20 0x0.0p0 1200 18 0", // FirstOrder(Iteration)
    ("ring", "DeepWalk", 2) -> "0x1.3630464c7328cp-8 0x1.f75104d551d68p-16 19 15 0x1.341c8103e556ap-8 0 0x0.0p0 0x1.c7443b8805366p-20 0x0.0p0 1200 19 0", // FirstOrder(Alphabet)
    ("ring", "DeepWalk", 3) -> "0x1.110fbf3226e62p-7 0x1.f75104d551d68p-16 20 11 0x1.1005dc8ddffdp-7 0 0x0.0p0 0x1.c7443b8805366p-20 0x0.0p0 1200 20 0", // FirstOrder(Min-Height)
    ("ring", "DeepWalk", 4) -> "0x1.27ffc5bfdfa0fp-7 0x1.f75104d551d68p-16 20 10 0x1.26f5e31b98b7dp-7 0 0x0.0p0 0x1.c7443b8805366p-20 0x0.0p0 1200 20 0", // FirstOrder(Max-Sum)
    ("ring", "DeepWalk", 5) -> "0x1.d9a338c384be6p-12 0x1.f75104d551d68p-16 0 0 0x0.0p0 140 0x1.b866e43aa79bcp-12 0x1.c7443b8805366p-20 0x0.0p0 1200 18 0", // FirstOrder(Iteration)
    ("wheel", "RWNV", 0) -> "0x1.42cd653b27a53p-7 0x1.6b67919089f11p-15 28 18 0x1.414f66d6b4e94p-7 0 0x0.0p0 0x1.296d2e232062fp-19 0x0.0p0 1600 12 5", // BiBlock(full)
    ("wheel", "RWNV", 1) -> "0x1.0b7bd08432166p-7 0x1.6b67919089f11p-15 12 3 0x1.ebada75c69a73p-8 205 0x1.426fe718a86d7p-11 0x1.296d2e232062fp-19 0x0.0p0 1600 12 5", // BiBlock(on-demand)
    ("wheel", "RWNV", 2) -> "0x1.5c3adba19083dp-6 0x1.6b67919089f11p-15 37 12 0x1.5b765baf86c96p-6 0 0x0.0p0 0x1.d985282eae7a6p-19 0x0.0p0 1600 17 0", // PB
    ("wheel", "RWNV", 3) -> "0x1.8a34850181ec4p-6 0x1.6b67919089f11p-15 34 6 0x1.78f19048039c3p-6 333 0x1.05e1c15097c81p-10 0x1.7926dd64749ecp-17 0x0.0p0 1600 41 0", // SOGW
    ("wheel", "RWNV", 4) -> "0x1.82dca1eb9d7e7p-6 0x1.6b67919089f11p-15 34 7 0x1.6d798d01273edp-6 150 0x1.d7dbf487fcb92p-12 0x1.7926dd64749ecp-17 0x1.a3d98e7c2f259p-11 1600 41 0", // SGSC
    ("wheel", "RWNV", 5) -> "0x1.0b7bd08432166p-7 0x1.6b67919089f11p-15 12 3 0x1.ebada75c69a73p-8 205 0x1.426fe718a86d7p-11 0x1.296d2e232062fp-19 0x0.0p0 1600 12 5", // GraSorw
    ("wheel", "PRNV", 0) -> "0x1.1f20fe6f8a912p-7 0x1.c8fed4345ed22p-15 24 15 0x1.1d3d38d6c75dcp-7 0 0x0.0p0 0x1.ac6c48ed48872p-19 0x0.0p0 2021 11 4", // BiBlock(full)
    ("wheel", "PRNV", 1) -> "0x1.daddc33d779cep-8 0x1.c8fed4345ed22p-15 11 3 0x1.b73c7df0d7d53p-8 162 0x1.fd9ba1b1960fap-12 0x1.ac6c48ed48872p-19 0x0.0p0 2021 11 4", // BiBlock(on-demand)
    ("wheel", "PRNV", 2) -> "0x1.230ff41e3260bp-6 0x1.c8fed4345ed22p-15 30 9 0x1.22186e35e89a4p-6 0 0x0.0p0 0x1.3067e2f9702a2p-18 0x0.0p0 2021 14 0", // PB
    ("wheel", "PRNV", 3) -> "0x1.82bccb09ef913p-6 0x1.c8fed4345ed22p-15 32 5 0x1.6a30fed91710ap-6 477 0x1.7720c8cd63cb8p-10 0x1.aa01cf40a310fp-17 0x0.0p0 2021 39 0", // SOGW
    ("wheel", "PRNV", 4) -> "0x1.84cc6fc2a11ep-6 0x1.c8fed4345ed22p-15 32 5 0x1.6a30fed91710ap-6 252 0x1.8c5c9a34ca0c3p-11 0x1.aa01cf40a310fp-17 0x1.a3d98e7c2f259p-11 2021 39 0", // SGSC
    ("wheel", "PRNV", 5) -> "0x1.054b7b81eb221p-7 0x1.c8fed4345ed22p-15 12 3 0x1.ebada75c69a73p-8 138 0x1.b21c475e6362bp-12 0x1.ac6c48ed48872p-19 0x0.0p0 2021 11 4", // GraSorw
    ("wheel", "DeepWalk", 0) -> "0x1.6ff94ed84caa2p-6 0x1.4f8b588e368fp-15 35 8 0x1.6f1dcb7e2961ep-6 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 35 0", // FirstOrder(GraphWalker)
    ("wheel", "DeepWalk", 1) -> "0x1.502883cf24626p-7 0x1.4f8b588e368fp-15 32 22 0x1.4e717d1addd1ep-7 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 32 0", // FirstOrder(Iteration)
    ("wheel", "DeepWalk", 2) -> "0x1.3c810b697bd5dp-7 0x1.4f8b588e368fp-15 33 24 0x1.3aca04b535455p-7 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 33 0", // FirstOrder(Alphabet)
    ("wheel", "DeepWalk", 3) -> "0x1.02301da172f95p-6 0x1.4f8b588e368fp-15 31 13 0x1.01549a474fb11p-6 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 31 0", // FirstOrder(Min-Height)
    ("wheel", "DeepWalk", 4) -> "0x1.6cb0d1de48641p-6 0x1.4f8b588e368fp-15 33 6 0x1.6bd54e84251bdp-6 0 0x0.0p0 0x1.9ded6ee167c21p-17 0x0.0p0 1600 33 0", // FirstOrder(Max-Sum)
    ("wheel", "DeepWalk", 5) -> "0x1.66f6955954406p-10 0x1.4f8b588e368fp-15 0 0 0x0.0p0 439 0x1.593e5fb71fbc6p-10 0x1.9ded6ee167c21p-17 0x0.0p0 1600 32 0", // FirstOrder(Iteration)
  )

  for ((gName, bg) <- graphs) {
    val g = bg.g
    for ((tName, task) <- Seq(
           "RWNV" -> WalkTask.rwnv(g, p = 0.25, q = 4.0, walksPerVertex = 1, len = 20),
           "PRNV" -> WalkTask.prnv(g, p = 0.25, q = 4.0, nQueries = 4))) {
      lazy val runs = (secondOrderEngines :+ learned(bg, task)).map(e => e.name -> runTraced(e, bg, task).m)
      test(s"second-order engines' metrics are pinned ($gName, $tName)") {
        for (((name, m), i) <- runs.zipWithIndex)
          assert(fmt(m) == pinned((gName, tName, i)), name)
      }
      test(s"second-order engines' execution times are equal ($gName, $tName)") {
        assertOneExecTime(runs)
      }
    }

    lazy val dwRuns = {
      val dw = WalkTask.deepwalk(g, walksPerVertex = 1, len = 20)
      firstOrderEngines.map(e => e.name -> runTraced(e, bg, dw).m)
    }
    test(s"first-order engines' metrics are pinned ($gName, DeepWalk)") {
      for (((name, m), i) <- dwRuns.zipWithIndex)
        assert(fmt(m) == pinned((gName, "DeepWalk", i)), name)
    }
    test(s"first-order engines' execution times are equal ($gName, DeepWalk)") {
      assertOneExecTime(dwRuns)
    }
  }

  private val connectedRWNVFullSamples = Seq(
    "1 0x1.e9bd37a6f4deap-2 0x1.ad2bf2a21e76p-14",
    "2 0x1.1555555555555p-1 0x1.af47d33eb10ap-14",
    "3 0x1.2762762762762p-1 0x1.b20628e24218p-14",
    "4 0x1.d89d89d89d89ep-2 0x1.ad684ac58ab4p-14",
    "5 0x1.0p-1 0x1.afb34e85fbd6p-14",
    "2 0x1.2aaaaaaaaaaabp-1 0x1.ad55806884ccp-14",
    "3 0x1.89d89d89d89d9p-2 0x1.aa4d66a83a2p-14",
    "4 0x1.d89d89d89d89ep-2 0x1.ae2ce4ea99cap-14",
    "5 0x1.4p-1 0x1.b06f6d21f6b4p-14",
    "3 0x1.13b13b13b13b1p-1 0x1.aef59398e334p-14",
    "4 0x1.89d89d89d89d9p-1 0x1.b3159a04c94cp-14",
    "5 0x1.1555555555555p-1 0x1.ae84d56abfb4p-14",
    "4 0x1.3b13b13b13b14p-1 0x1.b225f14515fcp-14",
    "5 0x1.6aaaaaaaaaaabp-1 0x1.af29c2a9dac4p-14",
    "5 0x1.6p0 0x1.ba82c4d73a2cp-14",
    "1 0x1.642c8590b2164p-2 0x1.a9b05004f43p-14",
    "2 0x1.4p-1 0x1.ad6926ac8984p-14",
    "3 0x1.89d89d89d89d9p-2 0x1.ac65f325b15p-14",
    "4 0x1.6276276276276p-2 0x1.a9a66f2481e8p-14",
    "5 0x1.aaaaaaaaaaaabp-2 0x1.a8f7a104f49p-14",
    "2 0x1.aaaaaaaaaaaabp-2 0x1.aac330c376ap-14",
    "3 0x1.89d89d89d89d9p-3 0x1.a829787612cp-14",
    "4 0x1.d89d89d89d89ep-3 0x1.a7f3ff8a9cf8p-14",
    "5 0x1.aaaaaaaaaaaabp-2 0x1.a97caa645bfp-14",
    "3 0x1.89d89d89d89d9p-2 0x1.a9be97e54058p-14",
    "4 0x1.13b13b13b13b1p-1 0x1.ab615a477b18p-14",
    "5 0x1.0p-1 0x1.a8b9ac906a98p-14",
    "4 0x1.d89d89d89d89ep-3 0x1.a748858a2b08p-14",
    "5 0x1.2aaaaaaaaaaabp-2 0x1.a7ede0bcc58p-14",
    "5 0x1.0p-2 0x1.a6cc9ca11708p-14",
    "1 0x1.37a6f4de9bd38p-2 0x1.a83e9f8e5568p-14",
    "2 0x1.d555555555555p-2 0x1.aa4747da62ap-14",
    "3 0x1.3b13b13b13b14p-3 0x1.a6a2bc64112p-14",
    "4 0x1.d89d89d89d89ep-4 0x1.a6881b6b362p-14",
    "5 0x1.5555555555555p-4 0x1.a5658d75097p-14",
    "2 0x1.5555555555555p-3 0x1.a6f9b5805878p-14",
    "3 0x1.89d89d89d89d9p-3 0x1.a73093c32c4p-14",
    "4 0x1.d89d89d89d89ep-4 0x1.a5fd2a37b6e8p-14",
    "5 0x1.0p-3 0x1.a59c6bb7dd48p-14",
    "3 0x1.d89d89d89d89ep-4 0x1.a73093c32c4p-14",
    "4 0x1.89d89d89d89d9p-3 0x1.a7a4f8870acp-14",
    "5 0x1.0p-3 0x1.a696b5c221cp-14",
    "5 0x1.5555555555555p-5 0x1.a39e312c3d8ep-11",
    "5 0x1.5555555555555p-5 0x1.a4f6d98b834p-14",
    "1 0x1.642c8590b2164p-3 0x1.a6356dd1e8dp-14",
    "2 0x1.5555555555555p-5 0x1.a4ff8c0e571p-14",
    "3 0x1.3b13b13b13b14p-4 0x1.a566d74f87bp-14",
    "2 0x1.5555555555555p-5 0x1.a507ec1a8b8p-14",
    "3 0x1.3b13b13b13b14p-4 0x1.a5b8fb7875ap-14",
    "4 0x1.3b13b13b13b14p-5 0x1.a52a9aa8fb4p-14",
    "5 0x1.5555555555555p-5 0x1.a54a10952fap-14",
    "3 0x1.3b13b13b13b14p-5 0x1.a5147c2cd9fp-14",
    "5 0x1.5555555555555p-5 0x1.a512a8e1fcap-14",
    "1 0x1.642c8590b2164p-5 0x1.a50e266542cp-14",
    "5 0x1.5555555555555p-5 0x1.a39f440cfc1p-11",
    "4 0x1.3b13b13b13b14p-5 0x1.a3a351b6fe72p-11",
    "4 0x1.3b13b13b13b14p-5 0x1.a5609d04d05p-14",
  )

  private val connectedRWNVOnDemandSamples = Seq(
    "1 0x1.e9bd37a6f4deap-2 0x1.257cefc857f8p-15",
    "2 0x1.1555555555555p-1 0x1.5befd2d1c2bp-15",
    "3 0x1.2762762762762p-1 0x1.484eed30c2p-15",
    "4 0x1.d89d89d89d89ep-2 0x1.e6d1c70cb858p-16",
    "5 0x1.0p-1 0x1.5ce925782894p-15",
    "2 0x1.2aaaaaaaaaaabp-1 0x1.0c8bd2d2378p-15",
    "3 0x1.89d89d89d89d9p-2 0x1.a86735f0ddp-16",
    "4 0x1.d89d89d89d89ep-2 0x1.0e1c8b418b4p-15",
    "5 0x1.4p-1 0x1.2c0c7bcdfc84p-15",
    "3 0x1.13b13b13b13b1p-1 0x1.5b58360f1528p-15",
    "4 0x1.89d89d89d89d9p-1 0x1.aeecaa1c4f9p-15",
    "5 0x1.1555555555555p-1 0x1.ebc4cafad99p-16",
    "4 0x1.3b13b13b13b14p-1 0x1.48638ad8a568p-15",
    "5 0x1.6aaaaaaaaaaabp-1 0x1.298126ddc4bp-15",
    "5 0x1.6p0 0x1.d731dfdee8d8p-15",
    "1 0x1.642c8590b2164p-2 0x1.b97209da34ap-17",
    "2 0x1.4p-1 0x1.8a87608f9568p-15",
    "3 0x1.89d89d89d89d9p-2 0x1.0ab99ad57ebp-15",
    "4 0x1.6276276276276p-2 0x1.d7ca5888952p-16",
    "5 0x1.aaaaaaaaaaaabp-2 0x1.d58ff963acfp-16",
    "2 0x1.aaaaaaaaaaaabp-2 0x1.dc79802e149p-16",
    "3 0x1.89d89d89d89d9p-3 0x1.3b2daf63fbfp-16",
    "4 0x1.d89d89d89d89ep-3 0x1.3a01e57a9cp-16",
    "5 0x1.aaaaaaaaaaaabp-2 0x1.a54f37ff288p-16",
    "3 0x1.89d89d89d89d9p-2 0x1.d880e1c717ap-16",
    "4 0x1.13b13b13b13b1p-1 0x1.deb605147ap-16",
    "5 0x1.0p-1 0x1.3d9972eb1f8p-16",
    "4 0x1.d89d89d89d89ep-3 0x1.a5545f69214p-17",
    "5 0x1.2aaaaaaaaaaabp-2 0x1.46d71dec4cp-17",
    "5 0x1.0p-2 0x1.9a8f00f215p-16",
    "1 0x1.37a6f4de9bd38p-2 0x1.d29ac57d482p-16",
    "2 0x1.d555555555555p-2 0x1.a834f5a7a2cp-16",
    "3 0x1.3b13b13b13b14p-3 0x1.3c2814eb204p-17",
    "4 0x1.d89d89d89d89ep-4 0x1.01fd6e1adecp-16",
    "5 0x1.5555555555555p-4 0x1.329483ae6bcp-17",
    "2 0x1.5555555555555p-3 0x1.a356216de5cp-17",
    "3 0x1.89d89d89d89d9p-3 0x1.04f535b6402p-16",
    "4 0x1.d89d89d89d89ep-4 0x1.364fb7113d4p-17",
    "5 0x1.0p-3 0x1.98f543894dcp-17",
    "3 0x1.d89d89d89d89ep-4 0x1.04f535b6402p-16",
    "4 0x1.89d89d89d89d9p-3 0x1.0670e28a312p-16",
    "5 0x1.0p-3 0x1.3c1dc6172ecp-17",
    "5 0x1.5555555555555p-5 0x1.961a42a844p-19",
    "5 0x1.5555555555555p-5 0x1.972d2366c6p-19",
    "1 0x1.642c8590b2164p-3 0x1.9d9af841da4p-17",
    "2 0x1.5555555555555p-5 0x1.961db2444p-19",
    "3 0x1.3b13b13b13b14p-4 0x1.3248ec46d48p-17",
    "2 0x1.5555555555555p-5 0x1.9729b3cacep-19",
    "3 0x1.3b13b13b13b14p-4 0x1.34da0d8e448p-17",
    "4 0x1.3b13b13b13b14p-5 0x1.999e7c4b62p-19",
    "5 0x1.5555555555555p-5 0x1.a194049c56p-19",
    "3 0x1.3b13b13b13b14p-5 0x1.9989dea37ep-19",
    "5 0x1.5555555555555p-5 0x1.9aa70e35f6p-19",
    "1 0x1.642c8590b2164p-5 0x1.998d4e3f7cp-19",
    "5 0x1.5555555555555p-5 0x1.972d2366c6p-19",
    "4 0x1.3b13b13b13b14p-5 0x1.9734029ebep-19",
    "4 0x1.3b13b13b13b14p-5 0x1.9982ff6b89p-18",
  )

  private val connectedPRNVFullSamples = Seq(
    "1 0x1.90b21642c8591p-2 0x1.a8c76b00577cp-14",
    "2 0x1.9555555555555p0 0x1.b61409de615ep-14",
    "3 0x1.b13b13b13b13bp-1 0x1.ad74a3de198ep-14",
    "4 0x1.bb13b13b13b14p0 0x1.bd8c0cf5233p-14",
    "5 0x1.5555555555555p1 0x1.c1ebdb2070bcp-14",
    "2 0x1.0555555555555p1 0x1.b7f7ddda81b8p-14",
    "3 0x1.6276276276276p-1 0x1.b00b3f0621c8p-14",
    "4 0x1.3b13b13b13b14p-2 0x1.a7c513607e1cp-14",
    "5 0x1.6aaaaaaaaaaabp-1 0x1.ae00a7f2573p-14",
    "3 0x1.6762762762762p1 0x1.c7e9b2377f88p-14",
    "4 0x1.9d89d89d89d8ap0 0x1.bba51bd3a72p-14",
    "5 0x1.1555555555555p-1 0x1.aa204dc8f8cp-14",
    "4 0x1.d89d89d89d89ep-3 0x1.a735bb2d2514p-14",
    "5 0x1.5555555555555p-3 0x1.a6b0285d5e8p-14",
    "5 0x1.d555555555555p0 0x1.b8820ea3e1ecp-14",
    "1 0x1.bd37a6f4de9bdp-3 0x1.a8bfafe1624p-14",
    "2 0x1.d555555555555p-1 0x1.ad2f0fc77a2p-14",
    "3 0x1.3b13b13b13b14p-2 0x1.a8aabfc2df5p-14",
    "4 0x1.6276276276276p-2 0x1.a848497507fp-14",
    "5 0x1.5555555555555p-3 0x1.a588e0f0b868p-14",
    "2 0x1.8p-2 0x1.a87260abcd98p-14",
    "3 0x1.3b13b13b13b14p-3 0x1.a7b02341fb28p-14",
    "4 0x1.3b13b13b13b14p-4 0x1.a5cfda5eb5ep-14",
    "5 0x1.2aaaaaaaaaaabp-2 0x1.a7ce33d6d17p-14",
    "3 0x1.3b13b13b13b14p-4 0x1.a53030067388p-14",
    "4 0x1.d89d89d89d89ep-4 0x1.a64fa0d7448p-14",
    "5 0x1.5555555555555p-5 0x1.a580d35b239p-14",
    "4 0x1.d89d89d89d89ep-4 0x1.a6e4c561d58p-14",
    "5 0x1.5555555555555p-4 0x1.a5410b9bbc2p-14",
    "1 0x1.642c8590b2164p-3 0x1.a6ea3f426dd8p-14",
    "3 0x1.3b13b13b13b14p-4 0x1.a3a41fdf8d52p-11",
    "4 0x1.3b13b13b13b14p-5 0x1.a50e9458c23p-14",
    "2 0x1.5555555555555p-4 0x1.a6537e66bf28p-14",
    "3 0x1.3b13b13b13b14p-4 0x1.a6975aaf60e8p-14",
    "4 0x1.3b13b13b13b14p-4 0x1.a65a4221d5c8p-14",
    "5 0x1.5555555555555p-5 0x1.a509a3e88908p-14",
    "4 0x1.3b13b13b13b14p-5 0x1.a3a92f3c424cp-11",
  )

  private val connectedPRNVOnDemandSamples = Seq(
    "1 0x1.90b21642c8591p-2 0x1.d1ae8c599p-18",
    "2 0x1.9555555555555p0 0x1.d767fdb79db8p-16",
    "3 0x1.b13b13b13b13bp-1 0x1.e75911aa7c88p-16",
    "4 0x1.bb13b13b13b14p0 0x1.90621b24b4fp-16",
    "5 0x1.5555555555555p1 0x1.682fcb3c0178p-15",
    "2 0x1.0555555555555p1 0x1.def74da81f3p-16",
    "3 0x1.6276276276276p-1 0x1.bf5e97687b9p-16",
    "4 0x1.3b13b13b13b14p-2 0x1.a938ce1bba2p-17",
    "5 0x1.6aaaaaaaaaaabp-1 0x1.850a4754f3ep-16",
    "3 0x1.6762762762762p1 0x1.2896a5880a38p-15",
    "4 0x1.9d89d89d89d8ap0 0x1.748c5366d89p-15",
    "5 0x1.1555555555555p-1 0x1.a7ddc5919bep-16",
    "4 0x1.d89d89d89d89ep-3 0x1.b6d4e1f0d58p-18",
    "5 0x1.5555555555555p-3 0x1.3ce95af114p-17",
    "5 0x1.d555555555555p0 0x1.a0db8c96168p-15",
    "1 0x1.bd37a6f4de9bdp-3 0x1.d49f06c97b6p-16",
    "2 0x1.d555555555555p-1 0x1.25696501331p-15",
    "3 0x1.3b13b13b13b14p-2 0x1.a1dc9a5b71cp-16",
    "4 0x1.6276276276276p-2 0x1.ad527ec009p-17",
    "5 0x1.5555555555555p-3 0x1.9858ed5026ap-17",
    "2 0x1.8p-2 0x1.6e8c720b2cap-16",
    "3 0x1.3b13b13b13b14p-3 0x1.a93d199eb44p-17",
    "4 0x1.3b13b13b13b14p-4 0x1.a076d509e2p-18",
    "5 0x1.2aaaaaaaaaaabp-2 0x1.39eb9004bb2p-16",
    "3 0x1.3b13b13b13b14p-4 0x1.97d3c873dfp-18",
    "4 0x1.d89d89d89d89ep-4 0x1.9d8d39d1ed4p-17",
    "5 0x1.5555555555555p-5 0x1.a86c5d5ad7p-19",
    "4 0x1.d89d89d89d89ep-4 0x1.3d8c9062314p-17",
    "5 0x1.5555555555555p-4 0x1.998d4e3f7bp-18",
    "1 0x1.642c8590b2164p-3 0x1.689f7689666p-16",
    "3 0x1.3b13b13b13b14p-4 0x1.96ac4a0d798p-18",
    "4 0x1.3b13b13b13b14p-5 0x1.961db24441p-19",
    "2 0x1.5555555555555p-4 0x1.c09bfd5142p-19",
    "3 0x1.3b13b13b13b14p-4 0x1.a076d509e24p-17",
    "4 0x1.3b13b13b13b14p-4 0x1.3938766233cp-17",
    "5 0x1.5555555555555p-5 0x1.99866f0784p-19",
    "4 0x1.3b13b13b13b14p-5 0x1.9d1187e299p-19",
  )

  // The `(block, η, t)` sample of every ancillary load of the two runs
  // `learned` trains on, for `connected`: `t` is the priced wall time of
  // the load and the steps taken under it, so only a changed count moves
  // one. Rows are `block η t`, doubles in hex.
  {
    val bg = graphs.toMap.apply("connected")
    for ((tName, task, fullSamples, onDemandSamples) <- Seq(
           ("RWNV", WalkTask.rwnv(bg.g, p = 0.25, q = 4.0, walksPerVertex = 1, len = 20),
            connectedRWNVFullSamples, connectedRWNVOnDemandSamples),
           ("PRNV", WalkTask.prnv(bg.g, p = 0.25, q = 4.0, nQueries = 4),
            connectedPRNVFullSamples, connectedPRNVOnDemandSamples)))
      test(s"BiBlock LBL load logs are pinned (connected, $tName)") {
        val full = new LoadLogCollector
        val od = new LoadLogCollector
        profile(bg, task)(BlockLoading.AlwaysFull, full)
        profile(bg, task)(BlockLoading.AlwaysOnDemand, od)
        assert(samples(full) == fullSamples)
        assert(samples(od) == onDemandSamples)
      }
  }
}
