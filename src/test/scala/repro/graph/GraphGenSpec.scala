package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.TestGraphs.CsrNeighbors

class GraphGenSpec extends SparkSpec {
  import spark.implicits._

  /** Each (src, dst) pair packed into one Long, in row order. */
  private def packed(df: DataFrame): Array[Long] =
    df.select("src", "dst").collect()
      .map(r => (r.getInt(0).toLong << 32) | (r.getInt(1).toLong & 0xffffffffL))

  private def sortedPacked(df: DataFrame): Array[Long] = { val p = packed(df); java.util.Arrays.sort(p); p }

  test("erdosRenyi produces the requested pair count in range") {
    val df = GraphGen.erdosRenyi(spark, nV = 500, nPairs = 2000, seed = 1).cache()
    assert(df.count() == 2000)
    val mm = df.agg(min("src"), max("src"), min("dst"), max("dst")).head()
    assert(mm.getInt(0) >= 0 && mm.getInt(1) < 500 && mm.getInt(2) >= 0 && mm.getInt(3) < 500)
  }

  test("erdosRenyi is deterministic in its seed") {
    val a = GraphGen.erdosRenyi(spark, 300, 1000, seed = 7).collect().toSeq
    val b = GraphGen.erdosRenyi(spark, 300, 1000, seed = 7).collect().toSeq
    assert(a == b)
  }

  test("circulant graph has exact degree 2k everywhere") {
    val g = CsrGraph.fromDataFrame(GraphGen.circulant(spark, 200, k = 5), 200)
    assert((0 until 200).forall(g.degree(_) == 10))
    assert(g.nEdgesUndirected == 200 * 5)
  }

  test("circulant connects v to v±1..±k") {
    val g = CsrGraph.fromDataFrame(GraphGen.circulant(spark, 50, k = 3), 50)
    for (off <- 1 to 3) assert(g.hasEdge(0, off) && g.hasEdge(0, 50 - off))
    assert(!g.hasEdge(0, 4))
  }

  test("sbm densities approximate pIn and pOut") {
    val nBlocks = 4; val bs = 60
    val df = GraphGen.sbm(spark, nBlocks, bs, pIn = 0.5, pOut = 0.05, seed = 3).cache()
    val in = df.where(floor($"src" / bs) === floor($"dst" / bs)).count().toDouble
    val out = df.count() - in
    val inPairs = nBlocks * bs * (bs - 1) / 2.0
    val outPairs = nBlocks * (nBlocks - 1) / 2.0 * bs * bs
    assert(math.abs(in / inPairs - 0.5) < 0.05, s"pIn ${in / inPairs}")
    assert(math.abs(out / outPairs - 0.05) < 0.01, s"pOut ${out / outPairs}")
  }

  test("sbm emits only ordered pairs without self-loops") {
    val df = GraphGen.sbm(spark, 2, 30, 0.4, 0.1, seed = 4)
    assert(df.where($"src" >= $"dst").count() == 0)
  }

  test("sbm with pIn=1, pOut=0 in one block is the complete graph") {
    val g = CsrGraph.fromDataFrame(GraphGen.sbm(spark, 1, 40, 1.0, 0.0, seed = 5), 40)
    assert(g.nEdgesUndirected == 40 * 39 / 2)
    assert((0 until 40).forall(g.degree(_) == 39))
  }

  test("rmat vertex ids stay within 2^levels") {
    val df = GraphGen.rmat(spark, levels = 8, nPairs = 3000, a = 0.57, b = 0.19, c = 0.19, seed = 6).cache()
    val mm = df.agg(max("src"), max("dst"), min("src"), min("dst")).head()
    assert(mm.getInt(0) < 256 && mm.getInt(1) < 256 && mm.getInt(2) >= 0 && mm.getInt(3) >= 0)
  }

  test("rmat with skewed quadrants is skewed (top vertex well above average)") {
    val g = CsrGraph.fromDataFrame(
      GraphGen.rmat(spark, levels = 10, nPairs = 20000, a = 0.57, b = 0.19, c = 0.19, seed = 7), 1024)
    val degs = (0 until g.nV).map(g.degree)
    assert(degs.max > 8 * (degs.sum.toDouble / degs.count(_ > 0)), s"max=${degs.max}")
  }

  test("rmat rejects invalid quadrant probabilities") {
    assertThrows[IllegalArgumentException](
      GraphGen.rmat(spark, 4, 10, a = 0.8, b = 0.3, c = 0.2, seed = 1))
  }

  test("clusteredWeb concentrates most edges inside contiguous clusters") {
    val nV = 4000
    val g = CsrGraph.fromDataFrame(
      GraphGen.clusteredWeb(spark, nV, nPairs = 20000, meanCluster = 150, intraFrac = 0.9, seed = 14), nV)
    // Intra-cluster edges have span below ~1.6x the mean cluster size.
    var near = 0L
    for (v <- 0 until nV; z <- g.neighborsOf(v)) if (math.abs(v - z) < 240) near += 1
    assert(near.toDouble / g.nEdgesDirected > 0.8, s"near fraction ${near.toDouble / g.nEdgesDirected}")
  }

  test("clusteredWeb sequential cut is moderate; snapped boundaries cut it sharply") {
    val nV = 6000
    val g = CsrGraph.fromDataFrame(
      GraphGen.clusteredWeb(spark, nV, nPairs = 40000, meanCluster = 450, intraFrac = 0.9, seed = 15), nV)
    val seqCut = BlockedGraph.sequential(g, 10).edgeCut
    val snapCut = Partitioner.snappedSequential(g, 10).edgeCut
    assert(seqCut > 0.12, s"seq cut $seqCut")        // boundaries split clusters
    assert(snapCut < seqCut * 0.7, s"snap $snapCut vs seq $seqCut")
  }

  test("clusteredWeb rejects bad cluster sizes") {
    assertThrows[IllegalArgumentException](
      GraphGen.clusteredWeb(spark, 100, 10, meanCluster = 1, intraFrac = 0.5, seed = 1))
  }

  test("barabasiAlbert has nV*m - m(m+1)/2 + seed-clique edges and power-law head") {
    val nV = 2000; val m = 4
    val g = CsrGraph.fromDataFrame(GraphGen.barabasiAlbert(spark, nV, m, seed = 11), nV)
    // Each vertex beyond the seed clique adds m distinct edges.
    val expected = m * (m + 1) / 2 + (nV - m - 1) * m
    assert(math.abs(g.nEdgesUndirected - expected) <= expected / 100)
    val degs = (0 until nV).map(g.degree)
    assert(degs.max > 10 * m, s"hub degree ${degs.max}") // preferential attachment head
  }

  test("barabasiAlbert rejects bad parameters") {
    assertThrows[IllegalArgumentException](GraphGen.barabasiAlbert(spark, 5, 5, 1))
    assertThrows[IllegalArgumentException](GraphGen.barabasiAlbert(spark, 5, 0, 1))
  }

  test("seeded generators give the same graph whatever the leaf-node parallelism") {
    val key = "spark.sql.leafNodeDefaultParallelism"
    val saved = spark.conf.getOption(key)
    def underParallelism(p: Int): Seq[Seq[Long]] = {
      spark.conf.set(key, p.toString)
      Seq(
        GraphGen.erdosRenyi(spark, 300, 2000, seed = 3),
        GraphGen.rmat(spark, levels = 8, nPairs = 2000, a = 0.57, b = 0.19, c = 0.19, seed = 4),
        GraphGen.clusteredWeb(spark, 300, 2000, meanCluster = 20, intraFrac = 0.8, seed = 6),
        GraphGen.sbm(spark, 3, 40, pIn = 0.5, pOut = 0.1, seed = 7),
      ).map(sortedPacked(_).toSeq)
    }
    try {
      val (two, four) = (underParallelism(2), underParallelism(4))
      for ((name, i) <- Seq("ER", "R-MAT", "clusteredWeb", "SBM").zipWithIndex)
        assert(two(i) == four(i), s"$name differs between parallelism 2 and 4")
    } finally saved match {
      case Some(v) => spark.conf.set(key, v)
      case None    => spark.conf.unset(key)
    }
  }

  test("sbm gives the same graph whether or not joins may broadcast") {
    val key = "spark.sql.autoBroadcastJoinThreshold"
    val saved = spark.conf.getOption(key)
    def underThreshold(t: String): Array[Long] = {
      spark.conf.set(key, t)
      sortedPacked(GraphGen.sbm(spark, 3, 40, pIn = 0.5, pOut = 0.1, seed = 3))
    }
    try {
      val broadcast = underThreshold("10MB") // Spark's default
      val sortMerge = underThreshold("-1")
      assert(broadcast.sameElements(sortMerge),
        s"${broadcast.length} pairs with broadcast joins, ${sortMerge.length} without")
    } finally saved match {
      case Some(v) => spark.conf.set(key, v)
      case None    => spark.conf.unset(key)
    }
  }

  // Recorded before barabasiAlbert and clusteredWeb stopped building one
  // Spark row per driver-local datum; the rewrite must keep every edge.
  test("barabasiAlbert's ordered edge list is pinned") {
    val p = packed(GraphGen.barabasiAlbert(spark, 300, 3, seed = 21))
    assert(p.length == 894)
    assert(java.util.Arrays.hashCode(p) == -201221348)
  }

  // A multiset: with broadcast joins disabled the old generator's row order
  // came from a sort-merge join.
  test("clusteredWeb's edge multiset is pinned") {
    val p = sortedPacked(GraphGen.clusteredWeb(spark, 2000, 8000, meanCluster = 50, intraFrac = 0.8, seed = 22))
    assert(p.length == 8000)
    assert(java.util.Arrays.hashCode(p) == -447182850)
  }
}
