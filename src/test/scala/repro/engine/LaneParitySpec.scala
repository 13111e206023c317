package repro.engine

import java.util.concurrent.{Callable, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading, LblTrainer, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.{BlockedGraph, CsrGraph}
import repro.walk.WalkTask
import EngineTestKit._

/** `Walker.advanceAll` spreads a sweep over worker lanes; every result must
  * be the one a single thread gives. On a graph whose Init sweeps, pools and
  * buckets mostly exceed the sweep size worth sharing, this pins, for every
  * engine of the test kit and a learned BiBlock, each run's metrics row and
  * hashes of its corpus and visits, plus the `(block, η, t)` samples of the
  * two profiling runs the learned policy is trained on. The values were
  * recorded with the single-threaded kernel.
  *
  * Each row is `wallTimeSec execTimeSec blockIOCount blockIOSeqCount
  * blockIOTimeSec vertexIOCount vertexIOTimeSec walkIOTimeSec
  * cacheInitTimeSec steps timeSlots supersteps corpusHash visitsHash`,
  * doubles printed with `java.lang.Double.toHexString`.
  */
class LaneParitySpec extends AnyFunSuite {
  private val bg = TestGraphs.blocked(TestGraphs.connected(3000, 24000, seed = 71), 12)
  private val g = bg.g
  private def hex(d: Double) = java.lang.Double.toHexString(d)

  private val tasks = Seq(
    WalkTask.rwnv(g, walksPerVertex = 4, len = 20, seed = 1701),
    WalkTask.prnv(g, seed = 1702),
    WalkTask.deepwalk(g, walksPerVertex = 4, len = 20, seed = 1703),
  )

  private def fmt(m: DiskSim.Metrics): String =
    Seq(hex(m.wallTimeSec), hex(m.execTimeSec), m.blockIOCount, m.blockIOSeqCount,
        hex(m.blockIOTimeSec), m.vertexIOCount, hex(m.vertexIOTimeSec), hex(m.walkIOTimeSec),
        hex(m.cacheInitTimeSec), m.steps, m.timeSlots, m.supersteps).mkString(" ")

  private val HashSeed = 1125899906842597L

  private def corpusHash(t: TraceCollector): Long =
    (0 until t.nWalks).foldLeft(HashSeed)((h, w) => 31 * t.path(w).foldLeft(h)((h, v) => 31 * h + v) - 1)

  private def visitsHash(v: Array[Long]): Long = v.foldLeft(HashSeed)((h, x) => 31 * h + x)

  private def samplesHash(log: LoadLogCollector): String = {
    val ss = log.samples.map(s => s"${s.block} ${hex(s.eta)} ${hex(s.timeSec)}")
    s"${ss.length} ${ss.foldLeft(HashSeed)((h, s) => 31 * h + s.hashCode)}"
  }

  private def row(r: RunResult): String = s"${fmt(r.m)} ${corpusHash(r.trace)} ${visitsHash(r.visits)}"

  /** Task name -> (full-load samples, on-demand samples). */
  private val pinnedSamples = Map(
    "RWNV" -> ("735 3436463200835153037", "735 7909622314954517770"),
    "PRNV" -> ("627 6890075213277950764", "627 -7348776577023362044"),
  )

  /** (task, engine index) -> row. Second-order index 0-4 is
    * `secondOrderEngines`, 5 the learned BiBlock; first-order index 0-5 is
    * `firstOrderEngines`.
    */
  private val pinned: Map[(String, Int), String] = Map(
    ("RWNV", 0) -> "0x1.9fc31d4825b8dp-3 0x1.a554daad1d1fap-8 875 734 0x1.8e4fff020f601p-3 0 0x0.0p0 0x1.121ddc2b5bf0cp-9 0x0.0p0 240000 140 13 9083156602221294068 -8443908300073506445", // BiBlock(full)
    ("RWNV", 1) -> "0x1.7379ac78cb413p-2 0x1.a554daad1d1fap-8 140 11 0x1.b0a56565f187bp-4 82874 0x1.fd2d87f88765cp-3 0x1.121ddc2b5bf0cp-9 0x0.0p0 240000 140 13 9083156602221294068 -8443908300073506445", // BiBlock(on-demand)
    ("RWNV", 2) -> "0x1.dfd380cced4ecp-2 0x1.a554daad1d1fap-8 1590 1182 0x1.d6b2308319695p-2 0 0x0.0p0 0x1.45fe6f8fb877ep-9 0x0.0p0 240000 156 0 9083156602221294068 -8443908300073506445", // PB
    ("RWNV", 3) -> "0x1.44928f04dd62ep-1 0x1.a554daad1d1fap-8 160 11 0x1.f2f53f7f1352fp-4 167602 0x1.016fc9bc77143p-1 0x1.7973a329aa0c4p-9 0x0.0p0 240000 160 0 9083156602221294068 -8443908300073506445", // SOGW
    ("RWNV", 4) -> "0x1.2eafd87d07a74p-1 0x1.a554daad1d1fap-8 160 11 0x1.f2f53f7f1352fp-4 153049 0x1.d62aa19439de5p-2 0x1.7973a329aa0c4p-9 0x1.df09aa11a5b3ap-11 240000 160 0 9083156602221294068 -8443908300073506445", // SGSC
    ("RWNV", 5) -> "0x1.8008ce4ebacacp-3 0x1.a554daad1d1fap-8 699 563 0x1.5faf7e1003e1dp-3 2425 0x1.dcc63f141205cp-8 0x1.121ddc2b5bf0cp-9 0x0.0p0 240000 140 13 9083156602221294068 -8443908300073506445", // GraSorw
    ("PRNV", 0) -> "0x1.6b768ca5f5857p-3 0x1.0a41c306090a6p-9 747 614 0x1.6625733d4a9f7p-3 0 0x0.0p0 0x1.28125c92c1d2ep-11 0x0.0p0 76394 120 12 499979171948852954 8989506908571014545", // BiBlock(full)
    ("PRNV", 1) -> "0x1.71117b905fad4p-3 0x1.0a41c306090a6p-9 120 8 0x1.76ef89ffe267ap-4 28692 0x1.60913a4f8726dp-4 0x1.28125c92c1d2ep-11 0x0.0p0 76394 120 12 499979171948852954 8989506908571014545", // BiBlock(on-demand)
    ("PRNV", 2) -> "0x1.aaed3c6f4c321p-2 0x1.0a41c306090a6p-9 1322 937 0x1.a82aa092872bbp-2 0 0x0.0p0 0x1.5c30ad71e8a5ap-11 0x0.0p0 76394 136 0 499979171948852954 8989506908571014545", // PB
    ("PRNV", 3) -> "0x1.03749f9ce569dp-2 0x1.0a41c306090a6p-9 143 8 0x1.c331bd003fdaap-4 46809 0x1.1f9830e3cd9a5p-3 0x1.8f28c9c527df4p-11 0x0.0p0 76394 143 0 499979171948852954 8989506908571014545", // SOGW
    ("PRNV", 4) -> "0x1.f374dfb03c38ep-3 0x1.0a41c306090a6p-9 143 8 0x1.c331bd003fdaap-4 43338 0x1.0a44c7b02d59dp-3 0x1.8f28c9c527df4p-11 0x1.df09aa11a5b3ap-11 76394 143 0 499979171948852954 8989506908571014545", // SGSC
    ("PRNV", 5) -> "0x1.357f5ddadbec3p-3 0x1.0a41c306090a6p-9 418 294 0x1.0f7b7c3368738p-3 5322 0x1.059641f644956p-6 0x1.28125c92c1d2ep-11 0x0.0p0 76394 120 12 499979171948852954 8989506908571014545", // GraSorw
    ("DeepWalk", 0) -> "0x1.fa8c1d5a2df3ep-4 0x1.89374bc6a7efap-8 158 19 0x1.d5639e23dbc12p-4 0 0x0.0p0 0x1.92a14f3cf677ep-9 0x0.0p0 240000 158 0 -4875914485207342442 2602741103309901843", // FirstOrder(GraphWalker)
    ("DeepWalk", 1) -> "0x1.3f3b758828943p-5 0x1.89374bc6a7efap-8 158 140 0x1.e9d4ee37085d8p-6 0 0x0.0p0 0x1.92a14f3cf677ep-9 0x0.0p0 240000 158 0 -4875914485207342442 2602741103309901843", // FirstOrder(Iteration)
    ("DeepWalk", 2) -> "0x1.305dac69bc179p-5 0x1.89374bc6a7efap-8 167 153 0x1.cc195bfa2f643p-6 0 0x0.0p0 0x1.92a14f3cf677ep-9 0x0.0p0 240000 167 0 -4875914485207342442 2602741103309901843", // FirstOrder(Alphabet)
    ("DeepWalk", 3) -> "0x1.19ed55c8225cfp-4 0x1.89374bc6a7efap-8 175 117 0x1.e989ad23a0546p-5 0 0x0.0p0 0x1.92a14f3cf677ep-9 0x0.0p0 240000 175 0 -4875914485207342442 2602741103309901843", // FirstOrder(Min-Height)
    ("DeepWalk", 4) -> "0x1.fc11c0bf19d34p-4 0x1.89374bc6a7efap-8 155 15 0x1.d6e94188c7a08p-4 0 0x0.0p0 0x1.92a14f3cf677ep-9 0x0.0p0 240000 155 0 -4875914485207342442 2602741103309901843", // FirstOrder(Max-Sum)
    ("DeepWalk", 5) -> "0x1.a38c6813f6be2p-4 0x1.89374bc6a7efap-8 0 0 0x0.0p0 31119 0x1.7e63e8dda48b6p-4 0x1.92a14f3cf677ep-9 0x0.0p0 240000 158 0 -4875914485207342442 2602741103309901843", // FirstOrder(Iteration)
  )

  /** The task's engines; for a second-order task the last is the learned
    * BiBlock, trained on two profiling runs whose samples are checked here.
    */
  private def engines(task: WalkTask): Seq[WalkEngine] =
    if (!task.model.isSecondOrder) firstOrderEngines
    else {
      val full = new LoadLogCollector
      val od = new LoadLogCollector
      new BiBlockEngine(BlockLoading.AlwaysFull, full).run(bg, task, new DiskSim())
      new BiBlockEngine(BlockLoading.AlwaysOnDemand, od).run(bg, task, new DiskSim())
      assert((samplesHash(full), samplesHash(od)) == pinnedSamples(task.name), s"${task.name} LBL samples")
      secondOrderEngines :+ new BiBlockEngine(LblTrainer.train(bg.nBlocks, full, od))
    }

  for (task <- tasks)
    test(s"${task.name}: every engine's metrics, corpus and visits match the single-thread pins") {
      for ((e, i) <- engines(task).zipWithIndex)
        assert(row(runTraced(e, bg, task)) == pinned((task.name, i)), s"${task.name} ${e.name}")
    }

  for (task <- tasks)
    test(s"${task.name}: with the lanes held by another sweep, every run on its caller alone matches the pins") {
      // Holding the lanes makes every sweep and seal of these runs take the
      // caller-alone path: each walk is routed to part 0 in chunk order.
      val held = Lanes.acquire(null)
      try for ((e, i) <- engines(task).zipWithIndex)
        assert(row(runTraced(e, bg, task)) == pinned((task.name, i)), s"${task.name} ${e.name} on its caller alone")
      finally if (held) Lanes.release()
    }

  test("two runs on two threads at once each give their pinned rows") {
    val pool = Executors.newFixedThreadPool(2)
    try {
      val runs = Seq((tasks(0), 1), (tasks(1), 0), (tasks(2), 1), (tasks(1), 3)).map { case (task, i) =>
        val engine = engines(task)(i)
        (task, i, engine.name, pool.submit(new Callable[String] { def call(): String = row(runTraced(engine, bg, task)) }))
      }
      for ((task, i, name, row) <- runs)
        assert(row.get(60, TimeUnit.SECONDS) == pinned((task.name, i)), s"${task.name} $name")
    } finally pool.shutdown()
  }

  test("an exception in a lane is rethrown by advanceAll, and the next sweep works") {
    val task = tasks(0)
    val bad = 2 // a vertex of block 0 that some walk of the sweep reaches
    // A copy of the graph whose steps from `bad` lead to a vertex that does
    // not exist, so the lane that takes such a step throws, until `fails`
    // is switched off and the copy mended.
    val broken = new CsrGraph(g.nV, g.offsets, g.neighbors.clone())
    val brokenBg = new BlockedGraph(broken, bg.blockStart)
    val starts = new WalkPools(bg.nBlocks)
    def sweepBlock0(walker: Walker, fails: Boolean): WalkPools = {
      for (j <- g.offsets(bad) until g.offsets(bad + 1))
        broken.neighbors(j) = if (fails) g.nV + 1 else g.neighbors(j)
      val walks = starts.drain(0)
      for (v <- bg.blockStart(0) until bg.blockStart(1)) walks.part(0).add(v.toLong, 0, -1, v)
      val routed = new WalkPools(bg.nBlocks)
      walker.advanceAll(walks, 0, Walker.Fixed, marks = false, routed)
      walker.chargeSteps(0, 0)
      routed
    }
    // The routed records as a multiset: which lane pools a walk is timing.
    def records(p: WalkPools) = (0 until p.nBlocks).flatMap(b => EngineTestKit.records(p.pool(b))).sorted

    val walker = new Walker(brokenBg, task, new DiskSim(), null, null)
    val e = intercept[ArrayIndexOutOfBoundsException](sweepBlock0(walker, fails = true))
    assert(e.getMessage.contains(s"Index ${g.nV + 1} out of bounds"))
    val stepsBefore = walker.sim.steps
    val after = sweepBlock0(walker, fails = false)
    assert(bg.blockStart(1) >= 48) // a sweep worth sharing

    val fresh = new Walker(bg, task, new DiskSim(), null, null)
    val reference = sweepBlock0(fresh, fails = false)
    assert(records(after) == records(reference))
    assert(walker.sim.steps - stepsBefore == fresh.sim.steps)
  }
}
