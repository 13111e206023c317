package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.{CostModel, DiskSim}
import repro.engine.{TraceCollector, WalkBuffer, WalkPools, Walker}
import repro.engine.TestWalks.{walk, walks}
import repro.walk.{DeepWalkModel, WalkTask}

class BlockLoadingModelSpec extends AnyFunSuite {
  private val g = TestGraphs.ring(40)
  private val bg = TestGraphs.blocked(g, 4)
  private def sim() = new DiskSim(CostModel.paperSsd)

  // ---- regression ------------------------------------------------------

  private def samples(pts: Seq[(Double, Double)]) =
    pts.map { case (eta, t) => LoadLogCollector.Sample(0, eta, t) }.toIndexedSeq

  test("OLS with intercept recovers an exact line") {
    val xs = Seq(0.0, 1.0, 2.0, 3.0)
    val (slope, intercept) = LblTrainer.lineFit(samples(xs.map(x => (x, 2.5 * x + 1.0))))
    assert(math.abs(slope - 2.5) < 1e-12 && math.abs(intercept - 1.0) < 1e-12)
  }

  test("OLS without intercept recovers a proportional line") {
    val xs = Seq(1.0, 2.0, 5.0)
    assert(math.abs(LblTrainer.originFit(samples(xs.map(x => (x, x * 4.0)))) - 4.0) < 1e-12)
  }

  test("OLS with intercept is least-squares on noisy data") {
    val rng = new scala.util.Random(5)
    val xs = Seq.tabulate(200)(i => i / 200.0)
    val (slope, intercept) =
      LblTrainer.lineFit(samples(xs.map(x => (x, 3.0 * x + 0.5 + (rng.nextDouble() - 0.5) * 0.01))))
    assert(math.abs(slope - 3.0) < 0.05 && math.abs(intercept - 0.5) < 0.01)
  }

  test("OLS rejects empty input") {
    assertThrows[IllegalArgumentException](LblTrainer.lineFit(samples(Nil)))
    assertThrows[IllegalArgumentException](LblTrainer.originFit(samples(Nil)))
  }

  // ---- threshold (η₀ = b_f / (α_o − α_f), §5.2.2) ----------------------

  test("threshold matches the paper's formula") {
    val eta0 = LblTrainer.threshold(alphaF = 1.0, bF = 0.3, alphaO = 2.5)
    assert(math.abs(eta0 - 0.3 / 1.5) < 1e-12)
  }

  test("threshold is +inf when on-demand is never steeper") {
    assert(LblTrainer.threshold(alphaF = 3.0, bF = 0.3, alphaO = 2.0).isPosInfinity)
  }

  test("threshold is 0 for a free full load") {
    assert(LblTrainer.threshold(alphaF = 1.0, bF = 0.0, alphaO = 2.0) == 0.0)
  }

  // ---- policies --------------------------------------------------------

  test("Learned policy switches on η at the threshold") {
    val p = new BlockLoading.Learned(Array(0.5, 0.5))
    assert(p.mode(0, BlockLoading.eta(nWalks = 60, nVertices = 100)) == BlockLoading.Full)     // η = 0.6
    assert(p.mode(1, BlockLoading.eta(nWalks = 40, nVertices = 100)) == BlockLoading.OnDemand) // η = 0.4
  }

  test("AlwaysFull / AlwaysOnDemand are constant") {
    assert(BlockLoading.AlwaysFull.mode(0, BlockLoading.eta(1, 100)) == BlockLoading.Full)
    assert(BlockLoading.AlwaysOnDemand.mode(0, BlockLoading.eta(99, 100)) == BlockLoading.OnDemand)
  }

  // ---- loading ---------------------------------------------------------

  /** Distinct vertices of block `i` that `ws`'s records hold as previous or
    * current vertex: what their on-demand load activates.
    */
  private def activated(i: Int, ws: WalkBuffer): Int =
    (0 until ws.length).flatMap(k => Seq(ws.prev(k), ws.cur(k))).filter(v => v >= 0 && bg.blockOf(v) == i).distinct.size

  test("full load charges one block read, touch is free") {
    val s = sim()
    BlockLoading.load(bg, 1, BlockLoading.AlwaysFull, walks = 0, touched = 1, s)
    assert(s.blockIOCount == 1 && s.vertexIOCount == 0)
  }

  test("on-demand load charges one light I/O per distinct activated vertex") {
    val s = sim()
    val ws = walks(
      walk(0, prev = 5, cur = 12, hop = 2),  // cur in block 1
      walk(1, prev = 13, cur = 25, hop = 2), // prev in block 1
      walk(2, prev = 12, cur = 30, hop = 2), // prev 12 again: deduplicated
    )
    BlockLoading.load(bg, 1, BlockLoading.AlwaysOnDemand, ws.length, activated(1, ws), s)
    assert(s.blockIOCount == 0)
    assert(s.vertexIOCount == 2) // {12, 13}
  }

  test("on-demand touch charges a miss once, then is resident") {
    // DeepWalk walks from vertex 12 swept in block 1: the load reads each
    // vertex of block 1 they start at or step from once, however often.
    val task = WalkTask("touch", DeepWalkModel, Array((12, 3)), maxLen = 30, stopProb = 0.0, seed = 5)
    val s = sim()
    val trace = new TraceCollector(3)
    val walker = new Walker(bg, task, s, null, trace)
    val pools = new WalkPools(bg.nBlocks)
    for (id <- 0L until 3L) pools.pool(1).part(0).add(id, 0, -1, 12)
    walker.advanceAll(pools.drain(1), 1, Walker.Fixed, marks = true, pools)
    val (arrivals, touched) = (walker.arrivals(1, 1), walker.touched(1, 1))
    // The corpus holds walks that ended: run those that left block 1 to
    // their ends. The sweep of block 1 stepped from each walk's prefix in
    // block 1, its last vertex excepted.
    while (!pools.isEmpty) {
      val b = (0 until bg.nBlocks).find(pools.size(_) > 0).get
      walker.advanceAll(pools.drain(b), b, Walker.Fixed, marks = false, pools)
    }
    walker.finish()
    val steppedFrom = (0 until 3).map(w => trace.path(w).init.takeWhile(bg.blockOf(_) == 1))
    val read = steppedFrom.flatten.toSet
    assert(read.contains(12) && read.forall(bg.blockOf(_) == 1))
    assert(steppedFrom.map(_.length).sum > read.size) // some vertex is stepped from twice
    BlockLoading.load(bg, 1, BlockLoading.AlwaysOnDemand, arrivals, touched, s)
    assert(s.vertexIOCount == read.size)
  }

  test("on-demand with no activated vertices charges nothing") {
    val s = sim()
    BlockLoading.load(bg, 2, BlockLoading.AlwaysOnDemand, 1, activated(2, walk(0, prev = 1, cur = 12, hop = 2)), s)
    assert(s.vertexIOCount == 0 && s.blockIOCount == 0)
  }

  // ---- trainer ---------------------------------------------------------

  test("trainer learns per-block thresholds from clean logs") {
    val full = new LoadLogCollector
    val od = new LoadLogCollector
    // Block 0: t_f = 0.1 + 1.0 η ; t_o = 3.0 η  => η₀ = 0.05
    for (eta <- Seq(0.01, 0.1, 0.5, 0.9)) {
      full.record(0, eta, 0.1 + 1.0 * eta)
      od.record(0, eta, 3.0 * eta)
    }
    val learned = LblTrainer.train(1, full, od)
    assert(math.abs(learned.thresholds(0) - 0.05) < 1e-9)
  }

  test("trainer falls back to the pooled fit for sparse blocks") {
    val full = new LoadLogCollector
    val od = new LoadLogCollector
    for (eta <- Seq(0.01, 0.2, 0.4, 0.8)) {
      full.record(0, eta, 0.2 + 1.0 * eta)
      od.record(0, eta, 5.0 * eta)
    }
    full.record(1, 0.3, 0.2 + 0.3) // single sample: below MinSamplesPerBlock
    val learned = LblTrainer.train(2, full, od)
    assert(math.abs(learned.thresholds(1) - learned.thresholds(0)) < 1e-9) // pooled ~= block-0 fit
    assert(math.abs(learned.thresholds(0) - 0.05) < 1e-9)
  }

  test("trainer with no samples yields threshold 0 (always on-demand is never chosen over full at η>0)") {
    val learned = LblTrainer.train(2, new LoadLogCollector, new LoadLogCollector)
    assert(learned.thresholds.forall(_ == 0.0))
  }
}
