package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.{BlockedGraph, GraphSpec}
import repro.walk.WalkTask

class ScaleSpec extends AnyFunSuite {
  private val g = TestGraphs.connected(100, 150, seed = 95)
  private val spec = GraphSpec("X", nV = 100, nBlocks = 4,
    paperCsrBytes = 1000000L, paperV = 10000L, gen = null)

  test("RWNV walkScale is paper steps over lite steps") {
    val t = WalkTask.rwnv(g, walksPerVertex = 2, len = 40)
    // paper: 10 * 10000 * 80 ; lite: 200 * 40
    assert(math.abs(Scale.walkScale(spec, t) - (10.0 * 10000 * 80) / (200.0 * 40)) < 1e-9)
  }

  test("DeepWalk walkScale matches the 10x80 paper workload") {
    val t = WalkTask.deepwalk(g) // 10 x 80 at lite scale too
    assert(math.abs(Scale.walkScale(spec, t) - 10000.0 / 100) < 1e-9)
  }

  test("PRNV walkScale is the walk-count ratio (lengths cancel)") {
    val t = WalkTask.prnv(g) // 4|V| = 400 walks
    assert(math.abs(Scale.walkScale(spec, t) - 40000.0 / 400) < 1e-9)
  }

  test("byteScale is the CSR byte ratio") {
    val bg = BlockedGraph.sequential(g, 4)
    assert(math.abs(Scale.byteScale(spec, bg) - 1000000.0 / bg.totalBytes) < 1e-9)
  }

  test("sim carries both scales") {
    val bg = BlockedGraph.sequential(g, 4)
    val t = WalkTask.rwnv(g, walksPerVertex = 1, len = 10)
    val sim = Scale.sim(spec, bg, t)
    assert(sim.byteScale == Scale.byteScale(spec, bg))
    assert(sim.walkScale == Scale.walkScale(spec, t))
  }

  test("unknown task kinds are rejected") {
    val t = WalkTask("Mystery", repro.walk.DeepWalkModel, Array((0, 1)), 5, 0.0, 1)
    assertThrows[IllegalArgumentException](Scale.walkScale(spec, t))
  }
}
