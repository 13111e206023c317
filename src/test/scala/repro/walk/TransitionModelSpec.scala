package repro.walk

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.CsrNeighbors
import repro.dfwalk.ExactNode2vec

import scala.concurrent.duration._
import scala.concurrent.{Await, ExecutionContext, Future}

class TransitionModelSpec extends AnyFunSuite {

  private val square = TestGraphs.fromPairs(4, Seq((0, 1), (1, 2), (2, 3), (3, 0)))
  // A house graph: triangle 0-1-2 plus pendant edges for hop-distance variety.
  private val house = TestGraphs.fromPairs(5, Seq((0, 1), (1, 2), (2, 0), (2, 3), (3, 4)))

  test("DeepWalk samples only neighbors") {
    for (i <- 0 until 200) {
      val u = i / 200.0
      val z = DeepWalkModel.sampleNext(square, -1, 0, u)
      assert(square.hasEdge(0, z))
    }
  }

  test("DeepWalk probability is uniform over neighbors") {
    // Neighbors of 2 in the house graph: {0, 1, 3}.
    assert(ExactNode2vec.probability(DeepWalkModel, house, -1, 2, 0) == 1.0 / 3)
    assert(ExactNode2vec.probability(DeepWalkModel, house, -1, 2, 3) == 1.0 / 3)
    assert(ExactNode2vec.probability(DeepWalkModel, house, -1, 2, 2) == 0.0)
  }

  test("DeepWalk on a dangling vertex returns -1") {
    val g = TestGraphs.fromPairs(3, Seq((0, 1)))
    assert(DeepWalkModel.sampleNext(g, -1, 2, 0.5) == -1)
  }

  test("Node2vec p=q=1 degenerates to uniform (probabilities)") {
    val m = Node2vecModel(1, 1)
    for (z <- Seq(0, 1, 3)) // neighbors of 2 in house: 0,1,3
      assert(math.abs(ExactNode2vec.probability(m, house, 0, 2, z) - 1.0 / 3) < 1e-12)
  }

  test("Node2vec weight cases: return (h=0), common neighbor (h=1), far (h=2)") {
    val m = Node2vecModel(p = 2.0, q = 4.0)
    // Walk 0 -> 2 in house. Neighbors of 2: {0, 1, 3}.
    //   z=0: return, w=1/p=0.5 ; z=1: neighbor of 0, w=1 ; z=3: far, w=1/q=0.25.
    val Z = 0.5 + 1.0 + 0.25
    assert(math.abs(ExactNode2vec.probability(m, house, 0, 2, 0) - 0.5 / Z) < 1e-12)
    assert(math.abs(ExactNode2vec.probability(m, house, 0, 2, 1) - 1.0 / Z) < 1e-12)
    assert(math.abs(ExactNode2vec.probability(m, house, 0, 2, 3) - 0.25 / Z) < 1e-12)
  }

  test("Node2vec probabilities sum to 1 over neighbors") {
    val m = Node2vecModel(p = 0.25, q = 4.0)
    for (prev <- Seq(0, 1, 3)) {
      val s = square.neighborsOf((prev + 1) % 4)
        .map(z => ExactNode2vec.probability(m, square, prev, (prev + 1) % 4, z)).sum
      assert(math.abs(s - 1.0) < 1e-12)
    }
  }

  test("Node2vec probability of a non-neighbor is zero") {
    val m = Node2vecModel(1, 1)
    assert(ExactNode2vec.probability(m, house, 0, 2, 4) == 0.0)
  }

  test("Node2vec first step (prev = -1) is uniform") {
    val m = Node2vecModel(p = 9.0, q = 0.1)
    for (z <- house.neighborsOf(2))
      assert(math.abs(ExactNode2vec.probability(m, house, -1, 2, z) - 1.0 / 3) < 1e-12)
  }

  test("Node2vec sampler inverts its own distribution (fine grid)") {
    val m = Node2vecModel(p = 0.5, q = 2.0)
    val counts = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    val n = 100000
    for (i <- 0 until n) {
      val z = m.sampleNext(house, 0, 2, (i + 0.5) / n)
      counts(z) += 1
    }
    for (z <- house.neighborsOf(2)) {
      val expected = ExactNode2vec.probability(m, house, 0, 2, z)
      assert(math.abs(counts(z).toDouble / n - expected) < 2e-3,
        s"z=$z got ${counts(z).toDouble / n} expected $expected")
    }
  }

  test("Node2vec sampler with Rng draws matches probabilities empirically") {
    val m = Node2vecModel(p = 4.0, q = 0.25)
    val counts = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    val n = 60000
    for (i <- 0 until n) counts(m.sampleNext(house, 1, 2, Rng.unit(3, i, 0, Rng.MoveStream))) += 1
    for (z <- house.neighborsOf(2)) {
      val expected = ExactNode2vec.probability(m, house, 1, 2, z)
      assert(math.abs(counts(z).toDouble / n - expected) < 0.01)
    }
  }

  test("Node2vec dangling current vertex returns -1") {
    val g = TestGraphs.fromPairs(3, Seq((0, 1)))
    assert(Node2vecModel(1, 1).sampleNext(g, 0, 2, 0.3) == -1)
  }

  test("Node2vec rejects non-positive hyperparameters") {
    assertThrows[IllegalArgumentException](Node2vecModel(0, 1))
    assertThrows[IllegalArgumentException](Node2vecModel(1, -2))
  }

  test("extreme u values stay in range") {
    val m = Node2vecModel(1, 1)
    assert(house.hasEdge(2, m.sampleNext(house, 0, 2, 0.0)))
    assert(house.hasEdge(2, m.sampleNext(house, 0, 2, 0.999999999)))
    assert(house.hasEdge(2, DeepWalkModel.sampleNext(house, -1, 2, 0.999999999)))
  }

  test("clique transitions: return discouraged by large p") {
    val g = TestGraphs.clique(5)
    val m = Node2vecModel(p = 100.0, q = 1.0)
    // From 0 -> 1, every other vertex is a common neighbor (w=1); return w=0.01.
    assert(ExactNode2vec.probability(m, g, 0, 1, 0) < 0.01)
    assert(math.abs(g.neighborsOf(1).map(ExactNode2vec.probability(m, g, 0, 1, _)).sum - 1.0) < 1e-12)
  }

  // Hub 0 with 300 leaves, of which 1..30 also form a clique: stepping
  // 1 -> 0 meets the return vertex, 29 common neighbors and 270 far ones.
  private val hub = TestGraphs.fromPairs(301,
    (1 to 300).map(i => (0, i)) ++ (for (i <- 1 to 30; j <- i + 1 to 30) yield (i, j)))

  test("u = 0 and u just below 1 return a neighbor for every model") {
    val models = Seq(DeepWalkModel, Node2vecModel(1, 1), Node2vecModel(0.25, 4))
    // (graph, cur) with degrees 2, 3 and 1000.
    val cases = Seq((TestGraphs.path(3), 1), (TestGraphs.star(4), 0), (TestGraphs.star(1001), 0))
    for ((g, cur) <- cases; m <- models; u <- Seq(0.0, Math.nextDown(1.0))) {
      val nbrs = g.neighborsOf(cur)
      for (prev <- Seq(-1, nbrs.head, nbrs.last)) {
        val z = m.sampleNext(g, prev, cur, u)
        assert(g.hasEdge(cur, z), s"$m d=${nbrs.length} prev=$prev u=$u gave $z")
      }
    }
  }

  /** `body`'s result, or a failure if it runs longer than 30 s. */
  private def terminates[A](body: => A): A =
    Await.result(Future(body)(ExecutionContext.global), 30.seconds)

  test("a remainder that rounds to 1 is accepted at ratio 1 and otherwise rejected") {
    // From a leaf into the hub of a star, u = 1 proposes the last leaf with
    // r = 1. At p = q = 1 every ratio is 1.
    assert(Node2vecModel(1, 1).sampleNext(TestGraphs.star(1001), 1, 0, 1.0) == 1000)
    // star(4), p = 0.25: the return vertex has the largest weight, ratio 1.
    val g = TestGraphs.star(4)
    assert(Node2vecModel(0.25, 4).sampleNext(g, 3, 0, 1.0) == 3)
    // p = 4: the return ratio is 1/16, so r = 1 rejects and rescales to 1
    // again until the draw's grid is used up; the trials then continue on
    // the fresh draw Rng.rehash(1.0).
    val m = Node2vecModel(4, 0.25)
    val z = terminates(m.sampleNext(g, 3, 0, 1.0))
    assert(z != 3 && z == m.sampleNext(g, 3, 0, Rng.rehash(1.0)), z)
  }

  test("Node2vec steps off a pendant vertex in one trial, however large p is") {
    // Hub -> leaf: the leaf's one neighbor is the return vertex, ratio 1e-9.
    // Rejection alone would take about 1e9 trials per step.
    val g = TestGraphs.star(1001)
    val m = Node2vecModel(1e9, 1)
    val zs = terminates((0 until 1000).map(i => m.sampleNext(g, 0, 7, Rng.unit(3, i, 1, Rng.MoveStream))))
    assert(zs.forall(_ == 0))
  }

  test("Node2vec p=q=1 picks neighbor min(d-1, floor(u*d)) bit for bit") {
    val m = Node2vecModel(1, 1)
    val grid = (0 until 10000).map(_ / 10000.0) :+ Math.nextDown(1.0)
    val draws = grid ++ (0 until 10000).map(i => Rng.unit(5, i, i % 40, Rng.MoveStream))
    val steps = Seq(
      (TestGraphs.star(1001), 7, 0), // leaf -> hub, d = 1000
      (TestGraphs.star(1001), 0, 7), // hub -> leaf, d = 1
      (TestGraphs.clique(200), 0, 1), // d = 199, every other vertex a common neighbor
      (hub, 1, 0),
    )
    for ((g, prev, cur) <- steps; u <- draws) {
      val d = g.degree(cur)
      assert(m.sampleNext(g, prev, cur, u) == g.neighbor(cur, math.min(d - 1, (u * d).toInt)),
        s"prev=$prev cur=$cur u=$u")
    }
  }

  /** Pearson chi-square of `counts` against `n` draws from `probs`. */
  private def chiSquare(counts: Map[Int, Int], probs: Map[Int, Double], n: Int): Double = {
    assert(counts.keySet.subsetOf(probs.keySet), s"sampled non-neighbors ${counts.keySet -- probs.keySet}")
    probs.map { case (z, pz) => val e = n * pz; val o = counts.getOrElse(z, 0); (o - e) * (o - e) / e }.sum
  }

  test("Node2vec rejection sampler matches probabilities on hubs under heavy rejection") {
    val steps = Seq((TestGraphs.clique(200), 0, 1), (TestGraphs.star(300), 5, 0), (hub, 1, 0))
    val n = 100000
    val rejectedFirst = scala.collection.mutable.Map.empty[(Double, Int), Double]
    for ((p, q) <- Seq((0.25, 4.0), (4.0, 0.25), (0.01, 0.01)); (g, prev, cur) <- steps) {
      val m = Node2vecModel(p, q)
      val d = g.degree(cur)
      val probs = g.neighborsOf(cur).map(z => z -> ExactNode2vec.probability(m, g, prev, cur, z)).toMap
      val draws = (0 until n).map(i => Rng.unit(23, i, 1, Rng.MoveStream))
      val picks = terminates(draws.map(m.sampleNext(g, prev, cur, _)))
      // Share of steps that did not return their first proposal; each of
      // them took at least one rejection.
      rejectedFirst((p, d)) =
        draws.indices.count(k => picks(k) != g.neighbor(cur, math.min(d - 1, (draws(k) * d).toInt))).toDouble / n
      val df = probs.size - 1
      val chi2 = chiSquare(picks.groupBy(identity).map { case (z, v) => z -> v.length }, probs, n)
      assert(chi2 < df + 6 * math.sqrt(2.0 * df), s"p=$p q=$q cur=$cur: chi2 $chi2, df $df")
      // Per hop distance, where a biased acceptance test would show first.
      val cls = (z: Int) => if (z == prev) 0 else if (g.hasEdge(prev, z)) 1 else 2
      for (c <- 0 to 2) {
        val pc = probs.collect { case (z, pz) if cls(z) == c => pz }.sum
        val got = picks.count(cls(_) == c).toDouble / n
        val sd = math.sqrt(pc * (1 - pc) / n)
        assert(math.abs(got - pc) <= 5 * sd + 1e-12, s"p=$p q=$q cur=$cur h=$c: $got vs $pc")
      }
    }
    // p = q = 0.01 on clique(200): a trial accepts with probability
    // Σw / (d·w_max) = 298 / 19900, so almost every step rejects its first
    // proposal. It takes about 67 trials, all but the first on rehashed
    // draws, since at d = 199 one rescaling already widens the grid past 2^-40.
    assert(rejectedFirst((0.01, 199)) > 0.9, rejectedFirst)
  }
}
