package repro

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.IntegerType
import repro.graph.GraphGen

/** Exercises the DuckDB oracle on plain SQL aggregations over a small graph
  * edge list — guards the correctness harness itself.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val edges = GraphGen.erdosRenyi(spark, nV = 60, nPairs = 300, seed = 14).cache()
  // Contiguous vertex ranges of 15, like the sequential partitioner's blocks.
  private lazy val blocks = spark.range(60)
    .select(col("id").cast(IntegerType) as "v", (col("id") / 15).cast(IntegerType) as "block").cache()

  test("edge row count matches DuckDB") {
    Oracle.assertEquivalent(
      edges.agg(count(lit(1)) as "n"),
      "SELECT COUNT(*) AS n FROM edges",
      "edges" -> edges)
  }

  test("grouped aggregation matches DuckDB") {
    val q = edges.groupBy(col("src") % 7 as "g")
      .agg(sum("dst") as "dsum", count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      q,
      """SELECT CAST(src AS INT) % 7 AS g, SUM(CAST(dst AS INT)) AS dsum, COUNT(*) AS cnt
        |FROM edges GROUP BY CAST(src AS INT) % 7""".stripMargin,
      "edges" -> edges)
  }

  test("join aggregation matches DuckDB") {
    val q = edges.join(blocks, edges("dst") === blocks("v"))
      .groupBy("block").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(
      q,
      """SELECT block, COUNT(*) AS cnt
        |FROM edges JOIN blocks ON CAST(dst AS INT) = CAST(v AS INT)
        |GROUP BY block""".stripMargin,
      "edges" -> edges, "blocks" -> blocks)
  }
}
