package repro.dfwalk

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.CsrNeighbors
import repro.core.{BiBlockEngine, BlockLoading}
import repro.disk.DiskSim
import repro.engine.EngineTestKit
import repro.graph.BlockedGraph
import repro.walk.{Node2vecModel, WalkTask}

class ExactNode2vecSpec extends AnyFunSuite {
  private val g = TestGraphs.connected(30, 40, seed = 81)
  private val model = Node2vecModel(p = 2.0, q = 0.5)

  test("edgeIndex finds each directed edge") {
    for (u <- 0 until g.nV; v <- g.neighborsOf(u)) {
      val idx = ExactNode2vec.edgeIndex(g, u, v)
      assert(g.neighbors(idx) == v)
      assert(idx >= g.offsets(u) && idx < g.offsets(u + 1))
    }
  }

  test("edgeIndex rejects a non-edge") {
    val non = (0 until g.nV).find(z => z != 0 && !g.hasEdge(0, z)).get
    assertThrows[IllegalArgumentException](ExactNode2vec.edgeIndex(g, 0, non))
  }

  test("stepEdgeDistribution conserves probability mass (no dangling)") {
    val pi = new Array[Double](g.nEdgesDirected.toInt)
    pi(ExactNode2vec.edgeIndex(g, 0, g.neighbor(0, 0))) = 1.0
    val out = ExactNode2vec.stepEdgeDistribution(g, model, pi)
    assert(math.abs(out.sum - 1.0) < 1e-12)
  }

  test("stepEdgeDistribution matches direct probability on one edge") {
    val u = 0; val v = g.neighbor(0, 0)
    val pi = new Array[Double](g.nEdgesDirected.toInt)
    pi(ExactNode2vec.edgeIndex(g, u, v)) = 1.0
    val out = ExactNode2vec.stepEdgeDistribution(g, model, pi)
    for (z <- g.neighborsOf(v))
      assert(math.abs(out(ExactNode2vec.edgeIndex(g, v, z)) - ExactNode2vec.probability(model, g, u, v, z)) < 1e-12)
  }

  test("expectedVisits of a 0-length walk is just the query") {
    val vis = ExactNode2vec.expectedVisits(g, model, query = 3, decay = 0.85, maxLen = 0)
    assert(vis(3) == 1.0 && vis.sum == 1.0)
  }

  test("expectedVisits totals 1 + sum of survival probabilities") {
    val maxLen = 6; val decay = 0.8
    val vis = ExactNode2vec.expectedVisits(g, model, query = 5, decay = decay, maxLen = maxLen)
    // No dangling vertices: step t occurs with probability decay^(t-1).
    val expected = 1.0 + (1 to maxLen).map(t => math.pow(decay, t - 1.0)).sum
    assert(math.abs(vis.sum - expected) < 1e-9, s"sum ${vis.sum} expected $expected")
  }

  test("expectedVisits on a dangling query is just the query") {
    val dg = TestGraphs.fromPairs(4, Seq((0, 1)))
    val vis = ExactNode2vec.expectedVisits(dg, model, query = 3, decay = 0.85, maxLen = 5)
    assert(vis(3) == 1.0 && vis.sum == 1.0)
  }

  test("expectedVisits matches brute-force path enumeration on a tiny graph") {
    val tiny = TestGraphs.fromPairs(4, Seq((0, 1), (1, 2), (2, 0), (2, 3)))
    val decay = 0.7; val maxLen = 3; val q = 0
    // Enumerate all paths of length <= maxLen from q weighting by transition
    // probabilities and survival.
    val brute = new Array[Double](4)
    def recurse(prev: Int, cur: Int, hop: Int, prob: Double): Unit = {
      brute(cur) += prob
      if (hop < maxLen) {
        for (z <- tiny.neighborsOf(cur)) {
          val pz = ExactNode2vec.probability(model, tiny, if (hop == 0) -1 else prev, cur, z)
          recurse(cur, z, hop + 1, prob * pz * (if (hop == 0) 1.0 else decay))
        }
      }
    }
    // First step happens with probability 1; survival applies after step 1.
    recurse(-1, q, 0, 1.0)
    val vis = ExactNode2vec.expectedVisits(tiny, model, q, decay, maxLen)
    for (v <- 0 until 4)
      assert(math.abs(vis(v) - brute(v)) < 1e-9, s"vertex $v: ${vis(v)} vs ${brute(v)}")
  }

  test("PRNV sampling converges to expectedVisits (engine-level statistical check)") {
    val bg = BlockedGraph.sequential(g, 3)
    // Heavy sampling from one query node.
    val nWalks = 40000
    val task = WalkTask("PRNV", model, Array((7, nWalks)), maxLen = 12, stopProb = 0.15, seed = 83)
    val r = EngineTestKit.runTraced(new BiBlockEngine(BlockLoading.AlwaysFull), bg, task)
    val exact = ExactNode2vec.expectedVisits(g, model, query = 7, decay = 0.85, maxLen = 12)
    val exactSum = exact.sum
    for (v <- 0 until g.nV) {
      val got = r.visits(v).toDouble / nWalks
      assert(math.abs(got - exact(v)) < 0.05 * exactSum / g.nV + 0.02,
        s"vertex $v: sampled $got exact ${exact(v)}")
    }
  }

  test("uniform model expectedVisits on a ring spreads symmetrically") {
    val ring = TestGraphs.ring(8)
    val uni = Node2vecModel(1, 1)
    val vis = ExactNode2vec.expectedVisits(ring, uni, query = 0, decay = 0.9, maxLen = 4)
    // Symmetry: distance-d vertices left and right get equal mass.
    for (d <- 1 to 3)
      assert(math.abs(vis(d) - vis(8 - d)) < 1e-12, s"asymmetry at distance $d")
  }
}
