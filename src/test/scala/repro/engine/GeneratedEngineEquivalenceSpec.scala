package repro.engine

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{BiBlockEngine, BlockLoading, BucketByBucketBiBlock, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.{BlockedGraph, CsrGraph, GraphGen}
import repro.walk.WalkTask
import EngineTestKit._

/** [[EngineEquivalenceSpec]] over generated inputs rather than a fixed list:
  * graph shape and size, block count and task are drawn from a fixed seed.
  * Every second-order engine must give the reference engine's corpus and
  * visits, the bi-block engine must keep the bounds of its schedule, and
  * Init must leave the skewed storage's invariants; every first-order
  * engine must agree on DeepWalk. The bi-block and the Iteration
  * first-order engine, which run a superstep per lane job, must also give
  * the charges of a reference that runs one slot at a time.
  */
class GeneratedEngineEquivalenceSpec extends AnyFunSuite {
  import GeneratedEngineEquivalenceSpec.Input

  private val graphs: Gen[(String, CsrGraph)] = for {
    n <- Gen.choose(20, 300)
    shape <- Gen.oneOf("er", "star", "wheel", "path", "clique", "ba")
    m <- Gen.choose(n / 2, 2 * n)
    attach <- Gen.choose(2, 6)
    seed <- Gen.long
  } yield shape match {
    case "er"     => s"er($n, $m, $seed)" -> TestGraphs.er(n, m, seed) // leaves isolated vertices
    case "star"   => s"star($n)" -> TestGraphs.star(n)
    case "wheel"  => s"wheel($n)" -> TestGraphs.wheel(n)
    case "path"   => s"path($n)" -> TestGraphs.path(n)
    case "clique" => s"clique($n)" -> TestGraphs.clique(n)
    // Preferential attachment: hubs cut by most blocks, so walks move on
    // through several slots of a superstep.
    case "ba" =>
      val (srcs, dsts) = GraphGen.barabasiAlbertEdges(n, attach, seed)
      s"ba($n, $attach, $seed)" -> CsrGraph.fromEdges(n, srcs, dsts)
  }

  // 0.01 and 100 make the return or the far neighbours 100 times likelier.
  private val pq: Gen[Double] = Gen.oneOf(0.01, 0.25, 1.0, 4.0, 100.0)

  private val inputs: Gen[Input] = for {
    (name, g) <- graphs
    // Half the draws keep to a few blocks, the rest range up to one per vertex.
    nBlocks <- Gen.oneOf(Gen.choose(1, math.min(g.nV, 8)), Gen.choose(1, g.nV))
    seed <- Gen.long
    task <- Gen.oneOf(
      for (p <- pq; q <- pq; walks <- Gen.choose(1, 2); len <- Gen.choose(1, 12))
        yield WalkTask.rwnv(g, p, q, walksPerVertex = walks, len = len, seed = seed),
      Gen.choose(1, 6).map(nQueries => WalkTask.prnv(g, nQueries = nQueries, seed = seed)),
    )
  } yield Input(name, g, nBlocks, task)

  test("second-order engines agree, and the bi-block engine keeps its bounds, on generated inputs") {
    val prop = Prop.forAllNoShrink(inputs) { in =>
      val bg = BlockedGraph.sequential(in.g, in.nBlocks)
      val nB = bg.nBlocks
      val runs = secondOrderEngines.map(e => (e, runTraced(e, bg, in.task)))
      val (refEngine, ref) = runs.head
      assertValidTrajectories(bg, in.task, ref.trace)
      val agree = runs.tail.map { case (e, r) =>
        (corpus(r.trace) == corpus(ref.trace) && r.visits.sameElements(ref.visits)) :|
          s"${e.name} diverged from ${refEngine.name}"
      }
      // Eq. 3 per superstep and at most N_B - 1 slots per superstep; Init
      // adds at most N_B of each once.
      val bounds = runs.collect { case (e: BiBlockEngine, r) =>
        val m = r.m
        ((m.blockIOCount <= m.supersteps * ((nB + 2) * (nB - 1) / 2) + nB) :|
          s"${e.name}: ${m.blockIOCount} block I/Os in ${m.supersteps} supersteps") &&
          ((m.timeSlots <= (m.supersteps + 1) * (nB - 1) + nB) :|
            s"${e.name}: ${m.timeSlots} time slots in ${m.supersteps} supersteps")
      }
      // Init leaves the skewed storage's invariants (Appendix B): each walk
      // sits in pool min(B(prev), B(cur)) of two different blocks, so the
      // top pool stays empty.
      val pools = new WalkPools(nB, skewed = true)
      Init.run(new Walker(bg, in.task, new DiskSim(), null, null), pools)
      checkInvariants(bg, pools)
      val topEmpty = (pools.size(nB - 1) == 0) :| s"${pools.size(nB - 1)} walks in the top pool after Init"
      Prop.all(agree ++ bounds :+ topEmpty: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(20220701L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  private val deepwalks: Gen[Input] = for {
    (name, g) <- graphs
    nBlocks <- Gen.oneOf(Gen.choose(1, math.min(g.nV, 8)), Gen.choose(1, g.nV))
    seed <- Gen.long
    walks <- Gen.choose(1, 2)
    len <- Gen.choose(1, 12)
  } yield Input(name, g, nBlocks, WalkTask.deepwalk(g, walksPerVertex = walks, len = len, seed = seed))

  test("first-order engines agree on DeepWalk over generated inputs") {
    val prop = Prop.forAllNoShrink(deepwalks) { in =>
      val bg = BlockedGraph.sequential(in.g, in.nBlocks)
      val runs = firstOrderEngines.map(e => (e, runTraced(e, bg, in.task)))
      val (refEngine, ref) = runs.head
      assertValidTrajectories(bg, in.task, ref.trace)
      Prop.all(runs.tail.map { case (e, r) =>
        (corpus(r.trace) == corpus(ref.trace) && r.visits.sameElements(ref.visits) && r.m.steps == ref.m.steps) :|
          s"${e.name} diverged from ${refEngine.name}"
      }: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(20220701L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  test("the bi-block engine's metrics and LBL samples equal the bucket-by-bucket reference's, in any bucket order") {
    val prop = Prop.forAllNoShrink(inputs) { in =>
      val bg = BlockedGraph.sequential(in.g, in.nBlocks)
      // A learned policy that loads every third block in full, the next
      // on demand, and the third by η, so one run takes both modes.
      val learned = new BlockLoading.Learned(Array.tabulate(bg.nBlocks)(i =>
        Seq(0.0, Double.PositiveInfinity, 0.5)(i % 3)))
      val checks = Seq(BlockLoading.AlwaysFull, BlockLoading.AlwaysOnDemand, learned).flatMap { policy =>
        def run(engine: LoadLogCollector => WalkEngine) = {
          val log = new LoadLogCollector
          val r = runTraced(engine(log), bg, in.task)
          (r.m, log.samples.toList, corpus(r.trace), r.visits.toSeq)
        }
        val swept = run(new BiBlockEngine(policy, _))
        val reference = run(new BucketByBucketBiBlock(policy, _))
        val permuted = run(new BucketByBucketBiBlock(policy, _, permuteSeed = Some(in.task.seed)))
        Seq(
          (swept == reference) :| s"$policy: BiBlock ${swept._1} ${swept._2} vs reference ${reference._1} ${reference._2}",
          (permuted == reference) :| s"$policy: permuted ${permuted._1} ${permuted._2} vs reference ${reference._1} ${reference._2}",
        )
      }
      Prop.all(checks: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(20220701L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  test("the Iteration first-order engine's metrics and LBL samples equal the slot-by-slot reference's") {
    val prop = Prop.forAllNoShrink(deepwalks) { in =>
      val bg = BlockedGraph.sequential(in.g, in.nBlocks)
      // Full, on-demand, and the bi-block check's mixed learned policy.
      val learned = new BlockLoading.Learned(Array.tabulate(bg.nBlocks)(i =>
        Seq(0.0, Double.PositiveInfinity, 0.5)(i % 3)))
      Prop.all(Seq(BlockLoading.AlwaysFull, BlockLoading.AlwaysOnDemand, learned).map { policy =>
        def run(engine: LoadLogCollector => WalkEngine) = {
          val log = new LoadLogCollector
          val r = runTraced(engine(log), bg, in.task)
          (r.m, log.samples.toList, corpus(r.trace), r.visits.toSeq)
        }
        val jobs = run(new FirstOrderEngine(new Scheduling.Iteration, policy, _))
        val reference = run(new SlotBySlotFirstOrder(policy, _))
        (jobs == reference) :| s"$policy: FirstOrder ${jobs._1} ${jobs._2} vs reference ${reference._1} ${reference._2}"
      }: _*)
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(20220701L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }
}

object GeneratedEngineEquivalenceSpec {
  private final case class Input(graph: String, g: CsrGraph, nBlocks: Int, task: WalkTask) {
    override def toString: String = s"$graph, ${g.nV} vertices, $nBlocks blocks, ${task.name} ${task.model}"
  }
}
