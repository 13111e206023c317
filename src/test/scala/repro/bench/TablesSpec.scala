package repro.bench

import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite
import repro.disk.{CostModel, DiskSim}
import Tables._

/** The table renderers on hand-made metrics, with no engine run and no
  * Spark. Rows carry the labels the harness gives them, so every
  * `PaperNumbers` lookup resolves. The expected text, in
  * `repro/bench/tables-golden.txt`, is what the renderers printed when each
  * table still had a row class and renderer of its own.
  */
class TablesSpec extends AnyFunSuite {

  /** Counts and scales that spread the priced times over `fmt`'s ranges
    * and give some rows no on-demand I/O.
    */
  private def metricsAt(i: Int): DiskSim.Metrics = DiskSim.Metrics(CostModel.paperSsd,
    byteScale = 1.0 + (i % 7) * 0.5, walkScale = math.pow(3, i % 9),
    blockIOCount = 10L * i + 3, blockIOSeqCount = 7L * i + 1, blockIOBytes = 1000003L * i + 12345,
    vertexIOCount = if (i % 4 == 0) 0 else 1001L * i * i, walkIOBytes = 16L * 9999 * i,
    steps = 123457L * i + 11, neighborWork = 31L * i * i,
    cacheInitCount = i % 3, cacheInitBytes = (i % 3) * 777777L, timeSlots = i, supersteps = i / 2)

  /** Every combination of one label from each dimension, in order. */
  private def keys(dims: Seq[String]*): Seq[Seq[String]] =
    dims.foldLeft(Seq(Seq.empty[String]))((ks, d) => for (k <- ks; x <- d) yield k :+ x)

  /** A row per key, with the metrics of `from`, `from + 1`, …. */
  private def rows(ks: Seq[Seq[String]], from: Int): Seq[Row] =
    ks.zipWithIndex.map { case (k, j) => Row(k, metricsAt(from + j)) }

  private val synthetic = Seq("CirculantG", "RandomG", "BASF", "RandomG1", "RandomG2", "RandomG3",
    "RandomG4", "RandomG5", "SBM1", "SBM2", "SBM3")
  private val systems = Seq("SOGW", "SGSC", "GraSorw")

  private val rendered = Seq(
    "Table 3" -> renderTable3(rows(keys(Seq("LJ", "CW"), Seq("RWNV", "PRNV"), Seq("PB", "Bi-Block")), 1)),
    "Table 4" -> renderTable4(rows(keys(Seq("TW", "UK"), Seq("Seq", "METIS"), Seq("Full", "Learned")), 11)),
    "Table 6" -> renderTable6(rows(keys(synthetic, Seq("RWNV", "PRNV"), systems), 21)),
    "Table 7" -> renderTable7(rows(keys(Seq("LJ", "UK"), Seq("GraphWalker", "GraSorw-No-LBL", "GraSorw")), 91)),
    "Table 8" -> renderTable8(rows(keys(Seq("FR"), t8Strategies), 101)),
    "End-to-end" -> renderEndToEnd(rows(keys(Seq("TW", "Kron29"), Seq("RWNV", "PRNV"), systems), 111)),
  )

  /** The golden file's tables by title; each follows a `== title ==` line. */
  private lazy val golden: Map[String, String] = {
    val text = Source.fromResource("repro/bench/tables-golden.txt", getClass.getClassLoader).mkString
    text.split("\n\n").map { block =>
      val lines = block.split("\n")
      lines.head.stripPrefix("== ").stripSuffix(" ==") -> lines.tail.mkString("\n")
    }.toMap
  }

  for ((title, text) <- rendered)
    test(s"$title renders as it did with its own row class") {
      assert(text == golden(title))
    }

  test("a lookup names the missing labels") {
    val e = intercept[NoSuchElementException](Tables.metrics(rows(keys(Seq("LJ"), Seq("PB")), 1), "LJ", "SOGW"))
    assert(e.getMessage.contains("LJ SOGW"))
  }
}
