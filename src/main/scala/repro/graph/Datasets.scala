package repro.graph

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Registry of the lite dataset analogs.
  *
  * Each spec carries its paper counterpart's scale constants (CSR bytes and
  * vertex count) which drive the DiskSim σ bridging:
  * `byteScale = paperCsrBytes / ourCsrBytes` and
  * `walkScale = paperSteps / ourSteps` (see DESIGN.md).
  *
  * Real-graph analogs (Table 2): structure classes are matched — power-law
  * R-MAT/BA for LJ/TW/FR/Kron29 (high sequential edge-cut) and the
  * clustered-web generator for UK/CrawlWeb (low sequential edge-cut).
  * Block counts equal the paper's.
  *
  * PRNV paper walk budgets (`Scale.walkScale`) use the §7.1 "total sample
  * size 4|V|" setting for all datasets: Table 6's reported absolute times
  * are inconsistent with the heavier 400|V| per-query setting described in
  * its text, and within-row ratios are unaffected by the choice.
  *
  * Synthetic family (Table 5): the same generator families as the paper
  * (circulant, Erdős–Rényi, Barabási–Albert, density ladder, SBM), scaled
  * down; the density ladder compresses the paper's top rungs to fit the
  * lite scale (documented deviation).
  */
final case class GraphSpec(
    name: String,
    nV: Int,
    nBlocks: Int,
    paperCsrBytes: Long,
    paperV: Long,
    gen: SparkSession => DataFrame,
)

object Datasets {
  private val MB = 1L << 20
  private val GB = 1L << 30

  // ---- Table 2 analogs -------------------------------------------------
  val lj = GraphSpec("LJ", nV = 12000, nBlocks = 17,
    paperCsrBytes = 364 * MB, paperV = 4_800_000L,
    gen = s => GraphGen.barabasiAlbert(s, 12000, m = 18, seed = 101))

  val tw = GraphSpec("TW", nV = 16384, nBlocks = 18,
    paperCsrBytes = (9.3 * GB).toLong, paperV = 41_700_000L,
    gen = s => GraphGen.rmat(s, levels = 14, nPairs = 450_000, a = 0.57, b = 0.19, c = 0.19, seed = 102))

  val fr = GraphSpec("FR", nV = 16000, nBlocks = 27,
    paperCsrBytes = 14 * GB, paperV = 65_600_000L,
    gen = s => GraphGen.erdosRenyi(s, 16000, nPairs = 450_000, seed = 103))

  val uk = GraphSpec("UK", nV = 20000, nBlocks = 25,
    paperCsrBytes = 26 * GB, paperV = 105_000_000L,
    gen = s => GraphGen.clusteredWeb(s, 20000, nPairs = 600_000, meanCluster = 600,
                                     intraFrac = 0.9, seed = 104))

  val kron = GraphSpec("Kron29", nV = 16384, nBlocks = 13,
    paperCsrBytes = 128 * GB, paperV = 277_000_000L,
    gen = s => GraphGen.rmat(s, levels = 14, nPairs = 700_000, a = 0.57, b = 0.19, c = 0.19, seed = 105))

  val cw = GraphSpec("CW", nV = 24000, nBlocks = 9,
    paperCsrBytes = 864 * GB, paperV = 3_600_000_000L,
    gen = s => GraphGen.clusteredWeb(s, 24000, nPairs = 900_000, meanCluster = 900,
                                     intraFrac = 0.88, seed = 106))

  /** The six Table 2 real-graph analogs, in the paper's order. */
  val real: Seq[GraphSpec] = Seq(lj, tw, fr, uk, kron, cw)

  // ---- Table 5 synthetic family ---------------------------------------
  val circulantG = GraphSpec("CirculantG", nV = 20000, nBlocks = 12,
    paperCsrBytes = (6.3 * GB).toLong, paperV = 40_000_000L,
    gen = s => GraphGen.circulant(s, 20000, k = 20))

  val randomG = GraphSpec("RandomG", nV = 20000, nBlocks = 12,
    paperCsrBytes = (6.3 * GB).toLong, paperV = 40_000_000L,
    gen = s => GraphGen.erdosRenyi(s, 20000, nPairs = 400_000, seed = 201))

  val basf = GraphSpec("BASF", nV = 20000, nBlocks = 12,
    paperCsrBytes = (6.3 * GB).toLong, paperV = 40_000_000L,
    gen = s => GraphGen.barabasiAlbert(s, 20000, m = 20, seed = 202))

  val randomG1 = GraphSpec("RandomG1", nV = 40000, nBlocks = 10,
    paperCsrBytes = (2.7 * GB).toLong, paperV = 100_000_000L,
    gen = s => GraphGen.erdosRenyi(s, 40000, nPairs = 100_000, seed = 203))

  val randomG2 = GraphSpec("RandomG2", nV = 4000, nBlocks = 11,
    paperCsrBytes = (1.9 * GB).toLong, paperV = 10_000_000L,
    gen = s => GraphGen.erdosRenyi(s, 4000, nPairs = 100_000, seed = 204))

  val randomG3 = GraphSpec("RandomG3", nV = 1000, nBlocks = 11,
    paperCsrBytes = (1.9 * GB).toLong, paperV = 1_000_000L,
    gen = s => GraphGen.erdosRenyi(s, 1000, nPairs = 350_000, seed = 205))

  val randomG4 = GraphSpec("RandomG4", nV = 320, nBlocks = 11,
    paperCsrBytes = (1.9 * GB).toLong, paperV = 100_000L,
    gen = s => GraphGen.erdosRenyi(s, 320, nPairs = 150_000, seed = 206))

  val randomG5 = GraphSpec("RandomG5", nV = 160, nBlocks = 10,
    paperCsrBytes = (1.9 * GB).toLong, paperV = 22_360L,
    gen = s => GraphGen.sbm(s, nBlocks = 1, blockSize = 160, pIn = 1.0, pOut = 0.0, seed = 207))

  val sbm1 = GraphSpec("SBM1", nV = 1260, nBlocks = 21,
    paperCsrBytes = (2.2 * GB).toLong, paperV = 42_000L,
    gen = s => GraphGen.sbm(s, nBlocks = 21, blockSize = 60, pIn = 0.9, pOut = 0.3, seed = 208))

  val sbm2 = GraphSpec("SBM2", nV = 1260, nBlocks = 21,
    paperCsrBytes = (4.0 * GB).toLong, paperV = 42_000L,
    gen = s => GraphGen.sbm(s, nBlocks = 21, blockSize = 60, pIn = 0.6, pOut = 0.6, seed = 209))

  val sbm3 = GraphSpec("SBM3", nV = 1260, nBlocks = 21,
    paperCsrBytes = (5.8 * GB).toLong, paperV = 42_000L,
    gen = s => GraphGen.sbm(s, nBlocks = 21, blockSize = 60, pIn = 0.3, pOut = 0.9, seed = 210))

  /** The eleven Table 5 synthetic graphs, in the paper's order. */
  val synthetic: Seq[GraphSpec] =
    Seq(circulantG, randomG, basf, randomG1, randomG2, randomG3, randomG4, randomG5,
        sbm1, sbm2, sbm3)

  // ---- caches (graphs are deterministic; build once per JVM) -----------
  private val csrCache = mutable.Map.empty[String, CsrGraph]
  private val blockedCache = mutable.Map.empty[(String, String), BlockedGraph]

  /** Build (or fetch) the CSR graph of a spec. */
  def csr(spec: GraphSpec)(implicit spark: SparkSession): CsrGraph =
    csrCache.getOrElseUpdate(spec.name, CsrGraph.fromDataFrame(spec.gen(spark), spec.nV))

  /** Build (or fetch) the blocked graph under `partition` ("seq" — the
    * paper's default sequential partition — or "locality", the METIS
    * substitute).
    */
  def blocked(spec: GraphSpec, partition: String = "seq")(implicit spark: SparkSession): BlockedGraph =
    blockedCache.getOrElseUpdate((spec.name, partition), partition match {
      case "seq"      => BlockedGraph.sequential(csr(spec), spec.nBlocks)
      case "locality" => Partitioner.locality(csr(spec), spec.nBlocks)
      case other      => throw new IllegalArgumentException(s"unknown partition $other")
    })
}
