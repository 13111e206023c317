package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, LblTrainer}
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
  * the same steps.
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
    new BiBlockEngine(LblTrainer.learn(bg.nBlocks)((policy, log) =>
      new BiBlockEngine(policy, log).run(bg, task, new DiskSim())))

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
}
