package repro.graph

import repro.{SparkSpec, TestGraphs}

class PartitionerSpec extends SparkSpec {
  test("bfsOrder visits every vertex exactly once") {
    val g = TestGraphs.er(200, 500, seed = 71)
    val order = Partitioner.bfsOrder(g)
    assert(order.sorted.sameElements(0 until 200))
  }

  test("bfsOrder starts at vertex 0") {
    val g = TestGraphs.connected(50, 30, seed = 72)
    assert(Partitioner.bfsOrder(g)(0) == 0)
  }

  test("bfsOrder covers disconnected components") {
    val g = TestGraphs.fromPairs(6, Seq((0, 1), (2, 3), (4, 5)))
    val order = Partitioner.bfsOrder(g)
    assert(order.sorted.sameElements(0 until 6))
  }

  test("locality partition preserves the edge structure") {
    val g = TestGraphs.connected(200, 400, seed = 73)
    val bg = Partitioner.locality(g, 5)
    assert(bg.g.nV == g.nV)
    assert(bg.g.nEdgesDirected == g.nEdgesDirected)
    val degs = (0 until g.nV).map(g.degree).sorted
    val degs2 = (0 until g.nV).map(bg.g.degree).sorted
    assert(degs == degs2)
  }

  test("locality partition keeps blocks balanced within the cap") {
    val g = TestGraphs.connected(300, 600, seed = 74)
    val bg = Partitioner.locality(g, 6)
    val sizes = (0 until bg.nBlocks).map(bg.verticesInBlock)
    assert(sizes.max <= math.ceil(300.0 / 6 * 1.03).toInt + 1, sizes)
  }

  test("locality partition cuts edge-cut on a community graph versus sequential-on-shuffled") {
    // Communities interleaved across the ID space: sequential blocking is
    // maximally bad, the locality partitioner should recover the communities.
    val nC = 6; val size = 40
    val pairs = for {
      c <- 0 until nC
      i <- 0 until size; j <- i + 1 until size
      if (i + j) % 3 != 0 // dense-ish communities
    } yield (i * nC + c, j * nC + c) // interleaved vertex ids
    val g = TestGraphs.fromPairs(nC * size, pairs)
    val seqCut = BlockedGraph.sequential(g, nC).edgeCut
    val locCut = Partitioner.locality(g, nC).edgeCut
    assert(locCut < seqCut / 3, s"loc=$locCut seq=$seqCut")
  }

  test("locality partition on the UK-like graph beats sequential") {
    val df = GraphGen.clusteredWeb(spark, 3000, 15000, meanCluster = 100, intraFrac = 0.9, seed = 75)
    val g = CsrGraph.fromDataFrame(df, 3000)
    val seqCut = BlockedGraph.sequential(g, 8).edgeCut
    val locCut = Partitioner.locality(g, 8).edgeCut
    assert(locCut <= seqCut, s"loc=$locCut seq=$seqCut")
  }

  test("snappedSequential keeps contiguous coverage and never beats the vertex floor") {
    val g = TestGraphs.connected(500, 900, seed = 79)
    val bg = Partitioner.snappedSequential(g, 7)
    assert(bg.nBlocks == 7)
    assert(bg.blockStart(0) == 0 && bg.blockStart(7) == 500)
    assert((0 until 7).forall(bg.verticesInBlock(_) >= 1))
  }

  test("snappedSequential byte imbalance stays within the slack bound") {
    val g = TestGraphs.connected(2000, 5000, seed = 80)
    val bg = Partitioner.snappedSequential(g, 8)
    val sizes = (0 until 8).map(bg.blockBytes)
    val target = bg.totalBytes.toDouble / 8
    sizes.foreach(s => assert(s < target * 1.9 && s > target * 0.2, sizes.toString))
  }

  test("snappedSequential with one block is the whole graph") {
    val g = TestGraphs.ring(20)
    val bg = Partitioner.snappedSequential(g, 1)
    assert(bg.nBlocks == 1 && bg.verticesInBlock(0) == 20)
  }

  test("locality never returns a worse cut than plain sequential") {
    for (seed <- 81 to 84) {
      val g = TestGraphs.connected(300, 700, seed)
      assert(Partitioner.locality(g, 6).edgeCut <= BlockedGraph.sequential(g, 6).edgeCut + 1e-12)
    }
  }

  test("compacted assignments never leave empty blocks") {
    val g = TestGraphs.connected(60, 120, seed = 78)
    val bg = Partitioner.locality(g, 4)
    assert((0 until bg.nBlocks).forall(bg.verticesInBlock(_) > 0))
  }
}
