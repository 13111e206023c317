package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.walk.WalkTask
import EngineTestKit._

/** The whole-system correctness oracle: every engine draws per-(walk, hop)
  * randomness from the counter RNG, so all engines must produce bit-identical
  * trajectories no matter how they schedule blocks. A walk that is lost,
  * duplicated, processed out of order, or mis-bucketed changes a trajectory
  * and fails these tests.
  */
class EngineEquivalenceSpec extends AnyFunSuite {

  private def assertAllEqual(bg: repro.graph.BlockedGraph, task: WalkTask,
                             engines: Seq[WalkEngine]): Unit = {
    val results = engines.map(e => e.name -> runTraced(e, bg, task))
    val (refName, ref) = results.head
    assertValidTrajectories(bg, task, ref.trace)
    for ((name, r) <- results.tail) {
      (0 until ref.trace.nWalks).foreach { id =>
        val (got, exp) = (r.trace.path(id).toSeq, ref.trace.path(id).toSeq)
        assert(got == exp, s"$name walk $id diverged from $refName:\n  got $got\n  exp $exp")
      }
      assert(r.visits.toSeq == ref.visits.toSeq, s"$name visit counts diverged")
    }
  }

  test("second-order engines agree on a connected ER graph (RWNV-style)") {
    val g = TestGraphs.connected(120, 200, seed = 41)
    val bg = TestGraphs.blocked(g, 6)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 1, len = 25), secondOrderEngines)
  }

  test("second-order engines agree on a ring (heavy block crossing)") {
    val g = TestGraphs.ring(60)
    val bg = TestGraphs.blocked(g, 5)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 2, len = 15), secondOrderEngines)
  }

  test("second-order engines agree on a clique (dense)") {
    val g = TestGraphs.clique(30)
    val bg = TestGraphs.blocked(g, 3)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 2, len = 12), secondOrderEngines)
  }

  test("second-order engines agree with biased p, q") {
    val g = TestGraphs.connected(80, 160, seed = 42)
    val bg = TestGraphs.blocked(g, 4)
    assertAllEqual(bg, WalkTask.rwnv(g, p = 4.0, q = 0.25, walksPerVertex = 1, len = 20), secondOrderEngines)
  }

  test("second-order engines agree on PRNV (restart task with stops)") {
    val g = TestGraphs.connected(100, 250, seed = 43)
    val bg = TestGraphs.blocked(g, 5)
    assertAllEqual(bg, WalkTask.prnv(g, nQueries = 4), secondOrderEngines)
  }

  test("second-order engines agree on a graph with dangling vertices") {
    val g = TestGraphs.er(90, 120, seed = 44) // leaves isolated vertices
    val bg = TestGraphs.blocked(g, 4)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 1, len = 10), secondOrderEngines)
  }

  test("second-order engines agree on a star (hub concentration)") {
    val g = TestGraphs.star(50)
    val bg = TestGraphs.blocked(g, 4)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 1, len = 8), secondOrderEngines)
  }

  test("second-order engines agree on a wheel hub with heavy rejection (p = 0.25, q = 4)") {
    // Rim -> hub steps accept a far rim vertex with ratio 1/16, so most of
    // them reject several proposals, on rescaled and then rehashed draws.
    val g = TestGraphs.wheel(80)
    val bg = TestGraphs.blocked(g, 4)
    assertAllEqual(bg, WalkTask.rwnv(g, p = 0.25, q = 4.0, walksPerVertex = 2, len = 16), secondOrderEngines)
  }

  test("second-order engines agree with a single block") {
    val g = TestGraphs.connected(40, 60, seed = 45)
    val bg = TestGraphs.blocked(g, 1)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 1, len = 10), secondOrderEngines)
  }

  test("second-order engines agree with two blocks") {
    val g = TestGraphs.connected(40, 60, seed = 46)
    val bg = TestGraphs.blocked(g, 2)
    assertAllEqual(bg, WalkTask.rwnv(g, walksPerVertex = 1, len = 10), secondOrderEngines)
  }

  test("first-order engines agree across all scheduling strategies") {
    val g = TestGraphs.connected(100, 180, seed = 47)
    val bg = TestGraphs.blocked(g, 6)
    assertAllEqual(bg, WalkTask.deepwalk(g, walksPerVertex = 1, len = 30), firstOrderEngines)
  }

  test("first-order engines agree on a path graph with dangling ends") {
    val g = TestGraphs.path(40)
    val bg = TestGraphs.blocked(g, 4)
    assertAllEqual(bg, WalkTask.deepwalk(g, walksPerVertex = 2, len = 12), firstOrderEngines)
  }

  test("runs are reproducible (same engine twice)") {
    val g = TestGraphs.connected(60, 90, seed = 48)
    val bg = TestGraphs.blocked(g, 4)
    val task = WalkTask.rwnv(g, walksPerVertex = 1, len = 15)
    val a = runTraced(secondOrderEngines.head, bg, task)
    val b = runTraced(secondOrderEngines.head, bg, task)
    assert(corpus(a.trace) == corpus(b.trace))
    assert(a.m == b.m)
  }
}
