package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables._

/** spark-submit entry point for the evaluation tables: prints each table
  * named on the command line, e.g. `runMain repro.jobs.Main Table3BiBlock`.
  */
object Main {
  private val tables: Seq[(String, (String, SparkSession => String))] = Seq(
    "Table2Stats" -> ("Table 2 (dataset and partition statistics)", implicit s => renderTable2(table2Rows())),
    "Table3BiBlock" -> ("Table 3 (PB vs Bi-Block engine I/O efficiency)", implicit s => renderTable3(table3Rows())),
    "Table4Loading" -> ("Table 4 (block loading methods x partitions)", implicit s => renderTable4(table4Rows())),
    "Table5Synth" -> ("Table 5 (synthetic graph statistics)", implicit s => renderTable5(table5Rows())),
    "Table6Systems" ->
      ("Table 6 (SOGW vs SGSC vs GraSorw on synthetic graphs)", implicit s => renderTable6(table6Rows())),
    "Table7FirstOrder" -> ("Table 7 (first-order random walk systems)", implicit s => renderTable7(table7Rows())),
    "Table8Scheduling" ->
      ("Table 8 (current-block scheduling strategies)", implicit s => renderTable8(table8Rows())),
    "EndToEnd" ->
      ("Figure 8 analog (end-to-end three-system comparison)", implicit s => renderEndToEnd(endToEndRows())),
  )

  def main(args: Array[String]): Unit = {
    val byName = tables.toMap
    if (args.isEmpty || !args.forall(byName.contains)) {
      System.err.println(s"usage: repro.jobs.Main <table>...; tables: ${tables.map(_._1).mkString(", ")}")
      sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(args.mkString(","))
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    for ((title, render) <- args.map(byName)) {
      println(s"== $title ==")
      println(render(spark))
    }
    spark.stop()
  }
}
