package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class BlockedGraphSpec extends AnyFunSuite {

  private val g = TestGraphs.connected(100, 150, seed = 21)

  test("sequential partition covers all vertices contiguously") {
    val bg = BlockedGraph.sequential(g, 5)
    assert(bg.nBlocks == 5)
    assert(bg.blockStart(0) == 0 && bg.blockStart(5) == g.nV)
    assert(bg.blockStart.toSeq == bg.blockStart.toSeq.sorted)
  }

  test("blockOf maps every vertex into its range") {
    val bg = BlockedGraph.sequential(g, 7)
    for (v <- 0 until g.nV) {
      val b = bg.blockOf(v)
      assert(v >= bg.blockStart(b) && v < bg.blockStart(b + 1))
    }
  }

  test("sequential partition roughly balances bytes") {
    val big = TestGraphs.connected(2000, 6000, seed = 22)
    val bg = BlockedGraph.sequential(big, 8)
    val sizes = (0 until 8).map(bg.blockBytes)
    assert(sizes.max.toDouble / sizes.min < 2.0, s"imbalanced: $sizes")
  }

  test("block byte accounting: 4 bytes per index and CSR cell") {
    val bg = BlockedGraph.sequential(g, 4)
    for (b <- 0 until 4)
      assert(bg.blockBytes(b) == 4L * (bg.verticesInBlock(b) + 1) + 4L * bg.edgesInBlock(b))
  }

  test("block offsets are cumulative and total matches") {
    val bg = BlockedGraph.sequential(g, 6)
    assert(bg.blockOffset(0) == 0)
    for (b <- 0 until 6) assert(bg.blockOffset(b + 1) == bg.blockOffset(b) + bg.blockBytes(b))
    assert(bg.totalBytes == (0 until 6).map(bg.blockBytes).sum)
  }

  test("edgesInBlock sums to all directed edges") {
    val bg = BlockedGraph.sequential(g, 9)
    assert((0 until 9).map(bg.edgesInBlock).sum == g.nEdgesDirected)
  }

  test("edge-cut of a single block is zero") {
    val bg = BlockedGraph.sequential(g, 1)
    assert(bg.edgeCut == 0.0)
  }

  test("edge-cut of a ring cut into k blocks is 2k / nEdgesDirected") {
    val ring = TestGraphs.ring(100)
    val bg = BlockedGraph.sequential(ring, 4)
    // 4 boundary edges cross (each counted in both directions) of 100 edges.
    assert(math.abs(bg.edgeCut - 8.0 / 200.0) < 1e-12)
  }

  test("edge-cut is between 0 and 1") {
    val bg = BlockedGraph.sequential(g, 10)
    assert(bg.edgeCut >= 0.0 && bg.edgeCut <= 1.0)
  }

  test("one block per vertex yields edge-cut 1 on a loop-free graph") {
    val ring = TestGraphs.ring(12)
    val bg = BlockedGraph.sequential(ring, 12)
    assert(bg.edgeCut == 1.0)
  }

  /** `newId(oldId)` under `assign`: the vertices of lower blocks come first,
    * then those of the vertex's own block with a smaller old id.
    */
  private def relabelling(assign: Array[Int]): Array[Int] =
    Array.tabulate(assign.length) { v =>
      assign.indices.count(u => assign(u) < assign(v) || (assign(u) == assign(v) && u < v))
    }

  test("fromAssignment produces contiguous relabeled blocks") {
    val assign = Array.tabulate(g.nV)(v => v % 3) // interleaved assignment
    val bg = BlockedGraph.fromAssignment(g, assign)
    val perm = relabelling(assign)
    assert(bg.nBlocks == 3)
    for (v <- 0 until g.nV) assert(bg.blockOf(perm(v)) == assign(v))
  }

  test("fromAssignment preserves the edge structure") {
    val assign = Array.tabulate(g.nV)(v => if (v < 30) 0 else if (v < 70) 1 else 2)
    val bg = BlockedGraph.fromAssignment(g, assign)
    val perm = relabelling(assign)
    for (u <- 0 until g.nV; j <- g.offsets(u) until g.offsets(u + 1)) {
      val v = g.neighbors(j)
      assert(bg.g.hasEdge(perm(u), perm(v)))
    }
    assert(bg.g.nEdgesDirected == g.nEdgesDirected)
  }

  test("sequential with nBlocks = nV puts one vertex per block") {
    val ring = TestGraphs.ring(8)
    val bg = BlockedGraph.sequential(ring, 8)
    assert((0 until 8).forall(bg.verticesInBlock(_) == 1))
  }

  test("rejects more blocks than vertices") {
    assertThrows[IllegalArgumentException](BlockedGraph.sequential(TestGraphs.ring(4), 5))
  }

  test("rejects non-covering block starts") {
    assertThrows[IllegalArgumentException](new BlockedGraph(g, Array(0, 50)))
  }

  test("rejects decreasing block starts") {
    val e = intercept[IllegalArgumentException](new BlockedGraph(g, Array(0, 5, 3, g.nV)))
    assert(e.getMessage.contains("non-decreasing"))
  }

  test("fromAssignment rejects negative block ids") {
    val assign = Array.tabulate(g.nV)(v => if (v == 7) -1 else v % 3)
    val e = intercept[IllegalArgumentException](BlockedGraph.fromAssignment(g, assign))
    assert(e.getMessage.contains("non-negative"))
  }
}
