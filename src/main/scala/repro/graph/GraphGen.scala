package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.IntegerType

/** Deterministic synthetic graph generators, expressed as Spark DataFrame
  * computations. For a fixed Spark version every generator is a pure
  * function of its parameters and seed, on any host.
  *
  * These substitute the paper's datasets:
  *   - Erdős–Rényi (`RandomG*` in Table 5),
  *   - circulant graphs (`CirculantG`),
  *   - stochastic block model (`SBM1..3`),
  *   - R-MAT / Kronecker power-law graphs (Twitter/Kron29 analogs),
  *   - Barabási–Albert scale-free (`BASF`, LiveJournal analog),
  *   - a clustered web graph (UK200705/CrawlWeb analogs, reproducing their
  *     moderate sequential edge-cut in Table 2).
  *
  * All return a DataFrame with Int columns `src`, `dst` of directed pairs;
  * `CsrGraph.fromDataFrame` symmetrizes/dedupes, so the realized undirected
  * edge count is slightly below the nominal pair count (collisions).
  *
  * Determinism: `rand(seed)` seeds each partition with seed + partition
  * index, so every seeded `spark.range` takes the fixed `Partitions` count
  * instead of one that follows the master's cores, and every draw is made
  * in projections over that range, before any join or shuffle could
  * reorder the rows it sees.
  *
  * No generator hands Spark one row per driver-local datum: a local
  * relation of n rows is rewritten by every analyzer and optimizer rule, so
  * its planning costs far more than the data (≈ 0.6 s on a 4-vCPU host
  * for the 216 k Barabási–Albert edges of `Datasets.lj`). Driver-local data
  * travels as one row of arrays, exploded on the executors, or as a lookup
  * array captured by a UDF.
  */
object GraphGen {

  /** Partition count of every seeded `spark.range`; 4 keeps the graphs
    * these generators produced on a 4-core master.
    */
  final val Partitions = 4

  private def seededRange(spark: SparkSession, n: Long) = spark.range(0, n, 1, Partitions)

  /** Erdős–Rényi G(n, m)-style: `nPairs` uniform random pairs. */
  def erdosRenyi(spark: SparkSession, nV: Int, nPairs: Long, seed: Long): DataFrame =
    seededRange(spark, nPairs).select(
      (rand(seed) * nV).cast(IntegerType) as "src",
      (rand(seed + 1) * nV).cast(IntegerType) as "dst",
    )

  /** Circulant graph: vertex `v` connects to `v ± 1 .. v ± k (mod nV)`. */
  def circulant(spark: SparkSession, nV: Int, k: Int): DataFrame = {
    val offs = (1 to k).map(lit(_))
    spark.range(nV).select(col("id").cast(IntegerType) as "src",
                           explode(array(offs: _*)) as "off")
      .select(col("src"), ((col("src") + col("off")) % nV).cast(IntegerType) as "dst")
  }

  /** Stochastic block model: `nBlocks` equal blocks of `blockSize` vertices;
    * edge probability `pIn` within a block and `pOut` across blocks.
    * Materialized by filtering all nV² ordered pairs, one range row each —
    * the paper's SBM graphs are extremely dense, so this is the honest
    * construction.
    *
    * Note: `rand` is materialized in its own projection before use — a
    * nondeterministic column referenced twice is evaluated twice, which
    * silently decorrelates the draws.
    */
  def sbm(spark: SparkSession, nBlocks: Int, blockSize: Int,
          pIn: Double, pOut: Double, seed: Long): DataFrame = {
    val nV = nBlocks * blockSize
    seededRange(spark, nV.toLong * nV)
      .select(floor(col("id") / nV).cast(IntegerType) as "src",
              (col("id") % nV).cast(IntegerType) as "dst", rand(seed) as "u")
      .where(col("src") < col("dst"))
      .where(
        when(floor(col("src") / blockSize) === floor(col("dst") / blockSize),
             col("u") < pIn)
          .otherwise(col("u") < pOut))
      .select(col("src"), col("dst"))
  }

  /** R-MAT (Kronecker) generator with partition probabilities (a, b, c, d).
    * Each of the `levels` bit positions of (src, dst) is drawn from the
    * 2x2 quadrant distribution — pure column expressions, no UDFs.
    */
  def rmat(spark: SparkSession, levels: Int, nPairs: Long,
           a: Double, b: Double, c: Double, seed: Long): DataFrame = {
    require(a + b + c <= 1.0, "quadrant probabilities must sum to <= 1")
    var df = seededRange(spark, nPairs).select(lit(0) as "src", lit(0) as "dst")
    var l = 0
    while (l < levels) {
      // Materialize the level's draw first: a nondeterministic column used in
      // several expressions would otherwise be re-evaluated per occurrence.
      val withR = df.select(col("src"), col("dst"), rand(seed + l) as "r")
      val r = col("r")
      // Quadrants: [0,a)=00, [a,a+b)=01 (dst bit), [a+b,a+b+c)=10 (src bit), rest=11.
      val srcBit = (r >= a + b).cast(IntegerType)
      val dstBit = ((r >= a && r < a + b) || (r >= a + b + c)).cast(IntegerType)
      df = withR.select(
        (col("src") * 2 + srcBit) as "src",
        (col("dst") * 2 + dstBit) as "dst",
      )
      l += 1
    }
    df.select(col("src").cast(IntegerType), col("dst").cast(IntegerType))
  }

  /** Clustered web graph (UK/CrawlWeb analog): vertices form ID-contiguous
    * clusters ("hosts") of irregular sizes around `meanCluster`; a fraction
    * `intraFrac` of edges is uniform inside the source's cluster, the rest
    * are uniform global links. Byte-balanced sequential block boundaries
    * fall mid-cluster and pay ~1/3 of the split cluster's intra edges —
    * reproducing UK200705's moderate sequential edge-cut — while a
    * partitioner that snaps boundaries to cluster gaps (as METIS in §7.5)
    * removes almost all intra-cluster cut.
    */
  def clusteredWeb(spark: SparkSession, nV: Int, nPairs: Long, meanCluster: Int,
                   intraFrac: Double, seed: Long): DataFrame = {
    require(meanCluster >= 2 && meanCluster < nV, "bad mean cluster size")
    // Deterministic irregular cluster sizes (0.4x .. 1.6x the mean).
    val rng = new java.util.Random(seed)
    val starts = scala.collection.mutable.ArrayBuffer(0)
    while (starts.last < nV) {
      val size = math.max(2, (meanCluster * (0.4 + 1.2 * rng.nextDouble())).toInt)
      starts += math.min(nV, starts.last + size)
    }
    // Each source's cluster start and size, looked up by vertex id.
    val clStart = new Array[Int](nV)
    val clSize = new Array[Int](nV)
    var c = 0
    while (c < starts.length - 1) {
      java.util.Arrays.fill(clStart, starts(c), starts(c + 1), starts(c))
      java.util.Arrays.fill(clSize, starts(c), starts(c + 1), starts(c + 1) - starts(c))
      c += 1
    }
    val startOf = udf((v: Int) => clStart(v))
    val sizeOf = udf((v: Int) => clSize(v))
    seededRange(spark, nPairs).select(
      (rand(seed + 1) * nV).cast(IntegerType) as "src",
      (rand(seed + 2) < intraFrac) as "isIntra",
      rand(seed + 3) as "r2",
      (rand(seed + 4) * nV).cast(IntegerType) as "far",
    ).select(
      col("src"),
      when(col("isIntra"),
           (startOf(col("src")) + floor(col("r2") * sizeOf(col("src")))).cast(IntegerType))
        .otherwise(col("far")) as "dst",
    )
  }

  /** Barabási–Albert preferential attachment: each new vertex attaches `m`
    * edges to endpoints sampled from the degree-proportional repeated-node
    * list. The process is inherently sequential, so it is generated locally
    * (`barabasiAlbertEdges`) and handed to Spark as one row of two arrays
    * (documented substitution — NetworkX in the paper is also a sequential
    * in-memory generator).
    */
  def barabasiAlbert(spark: SparkSession, nV: Int, m: Int, seed: Long): DataFrame = {
    val (srcs, dsts) = barabasiAlbertEdges(nV, m, seed)
    import spark.implicits._
    Seq((srcs, dsts)).toDF("src", "dst").select(inline(arrays_zip(col("src"), col("dst"))))
  }

  /** `barabasiAlbert`'s ordered edge list as (sources, destinations),
    * without Spark: the seed clique over vertices `0 .. m`, then each later
    * vertex's `m` edges.
    */
  def barabasiAlbertEdges(nV: Int, m: Int, seed: Long): (Array[Int], Array[Int]) = {
    require(nV > m && m >= 1, "need nV > m >= 1")
    val nEdges = m * (m + 1) / 2 + (nV - m - 1) * m
    val rng = new java.util.Random(seed)
    val repeated = new Array[Int](2 * nEdges)
    val srcs = new Array[Int](nEdges)
    val dsts = new Array[Int](nEdges)
    var e = 0
    def add(s: Int, d: Int): Unit = {
      srcs(e) = s; dsts(e) = d; repeated(2 * e) = s; repeated(2 * e + 1) = d; e += 1
    }
    // Seed clique over the first m+1 vertices.
    var i = 0
    while (i <= m) {
      var j = i + 1
      while (j <= m) { add(i, j); j += 1 }
      i += 1
    }
    var v = m + 1
    while (v < nV) {
      val chosen = new scala.collection.mutable.HashSet[Int]
      while (chosen.size < m) chosen += repeated(rng.nextInt(2 * e))
      chosen.foreach(add(v, _))
      v += 1
    }
    (srcs, dsts)
  }
}
