package repro.graph

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.TestGraphs.CsrNeighbors

class CsrGraphSpec extends AnyFunSuite {

  test("builds a triangle with symmetric adjacency") {
    val g = TestGraphs.fromPairs(3, Seq((0, 1), (1, 2), (2, 0)))
    assert(g.nV == 3)
    assert(g.nEdgesUndirected == 3)
    assert(g.neighborsOf(0).toSeq == Seq(1, 2))
    assert(g.neighborsOf(1).toSeq == Seq(0, 2))
    assert(g.neighborsOf(2).toSeq == Seq(0, 1))
  }

  test("drops self-loops") {
    val g = TestGraphs.fromPairs(3, Seq((0, 0), (0, 1), (1, 1)))
    assert(g.nEdgesUndirected == 1)
    assert(g.degree(0) == 1 && g.degree(1) == 1 && g.degree(2) == 0)
  }

  test("deduplicates parallel and reversed edges") {
    val g = TestGraphs.fromPairs(2, Seq((0, 1), (0, 1), (1, 0)))
    assert(g.nEdgesUndirected == 1)
    assert(g.degree(0) == 1 && g.degree(1) == 1)
  }

  test("adjacency lists are sorted") {
    val g = TestGraphs.er(100, 500, seed = 5)
    for (v <- 0 until g.nV) {
      val ns = g.neighborsOf(v)
      assert(ns.sameElements(ns.sorted), s"unsorted adjacency at $v")
    }
  }

  test("hasEdge agrees with adjacency lists") {
    val g = TestGraphs.er(60, 300, seed = 6)
    for (u <- 0 until g.nV; z <- 0 until g.nV)
      assert(g.hasEdge(u, z) == g.neighborsOf(u).contains(z), s"hasEdge($u,$z)")
  }

  test("hasEdge is symmetric") {
    val g = TestGraphs.er(50, 200, seed = 7)
    for (u <- 0 until g.nV; z <- 0 until g.nV)
      assert(g.hasEdge(u, z) == g.hasEdge(z, u))
  }

  test("degree sums to twice the undirected edge count") {
    val g = TestGraphs.er(200, 900, seed = 8)
    assert((0 until g.nV).map(g.degree(_).toLong).sum == g.nEdgesDirected)
    assert(g.nEdgesDirected == 2 * g.nEdgesUndirected)
  }

  test("clique has full degrees") {
    val g = TestGraphs.clique(9)
    assert((0 until 9).forall(g.degree(_) == 8))
  }

  test("star has hub degree n-1 and leaves degree 1") {
    val g = TestGraphs.star(12)
    assert(g.degree(0) == 11)
    assert((1 until 12).forall(g.degree(_) == 1))
  }

  test("path endpoints have degree 1") {
    val g = TestGraphs.path(10)
    assert(g.degree(0) == 1 && g.degree(9) == 1)
    assert((1 until 9).forall(g.degree(_) == 2))
  }

  test("dangling vertices have degree 0") {
    val g = TestGraphs.fromPairs(5, Seq((0, 1)))
    assert(g.degree(2) == 0 && g.degree(3) == 0 && g.degree(4) == 0)
  }

  test("neighbor(v, i) indexes the sorted list") {
    val g = TestGraphs.fromPairs(4, Seq((2, 0), (2, 3), (2, 1)))
    assert((0 until g.degree(2)).map(g.neighbor(2, _)) == Seq(0, 1, 3))
  }

  test("rejects out-of-range edges") {
    assertThrows[IllegalArgumentException](TestGraphs.fromPairs(3, Seq((0, 3))))
    assertThrows[IllegalArgumentException](TestGraphs.fromPairs(3, Seq((-1, 0))))
    // The first offending pair in input order is named.
    val e = intercept[IllegalArgumentException](
      TestGraphs.fromPairs(3, Seq((1, 1), (2, 0), (1, 3), (4, 0))))
    assert(e.getMessage == "requirement failed: edge (1,3) out of range [0,3)")
  }

  test("fromEdges equals the sorted, distinct symmetric pair set on random inputs") {
    val rng = new Random(17)
    for (trial <- 0 until 300) {
      val nV = if (trial % 10 == 0) 1 else 1 + rng.nextInt(40)
      // Endpoints come from a random subset of the vertices, so some
      // vertices stay isolated; re-emitted pairs, reversed pairs and
      // self-loops are mixed in on purpose.
      val live = 0 +: (1 until nV).filter(_ => rng.nextDouble() < 0.7)
      val pairs = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      for (_ <- 0 until rng.nextInt(120)) {
        def pick() = live(rng.nextInt(live.length))
        rng.nextInt(6) match {
          case 0 if pairs.nonEmpty => pairs += pairs(rng.nextInt(pairs.length))
          case 1 if pairs.nonEmpty => pairs += pairs(rng.nextInt(pairs.length)).swap
          case 2                   => val v = pick(); pairs += ((v, v))
          case _                   => pairs += ((pick(), pick()))
        }
      }
      val ref = pairs.flatMap { case (u, v) => Seq((u, v), (v, u)) }
        .filter { case (u, v) => u != v }.distinct.sorted
      val g = TestGraphs.fromPairs(nV, pairs.toSeq)
      val refOffsets = (0 to nV).map(v => ref.count(_._1 < v))
      assert(g.offsets.toSeq == refOffsets, s"offsets, trial $trial")
      assert(g.neighbors.toSeq == ref.map(_._2), s"neighbors, trial $trial")
    }
  }

  test("relabel by identity preserves the graph") {
    val g = TestGraphs.er(40, 150, seed = 9)
    val h = g.relabel(Array.tabulate(40)(identity))
    assert(h.offsets.sameElements(g.offsets))
    assert(h.neighbors.sameElements(g.neighbors))
  }

  test("relabel preserves the edge set under a random permutation") {
    val g = TestGraphs.er(30, 120, seed = 10)
    val perm = new Random(11).shuffle((0 until 30).toList).toArray
    val h = g.relabel(perm)
    for (u <- 0 until 30; v <- 0 until 30)
      assert(g.hasEdge(u, v) == h.hasEdge(perm(u), perm(v)), s"edge ($u,$v)")
  }

  test("relabel preserves degrees") {
    val g = TestGraphs.er(30, 120, seed = 12)
    val perm = new Random(13).shuffle((0 until 30).toList).toArray
    val h = g.relabel(perm)
    for (v <- 0 until 30) assert(g.degree(v) == h.degree(perm(v)))
  }

  test("relabel rejects wrong-size permutation") {
    val g = TestGraphs.ring(5)
    assertThrows[IllegalArgumentException](g.relabel(Array(0, 1, 2)))
  }
}
