package repro.bench

/** Table 4: pure full load vs the learning-based loading model, under the
  * sequential and the METIS-like partitions (RWNV on TW and UK).
  * Paper shape: the learned model reduces block I/O number and total wall
  * time under both partitions; the METIS partition reduces block I/Os
  * substantially versus sequential.
  */
class Table4LoadingBench extends BenchSpec {
  private lazy val rows = Tables.table4Rows()

  private def get(d: String, p: String, l: String) = Tables.metrics(rows, d, p, l)

  test("Table 4 renders") {
    printTable("Table 4: block loading methods x partitions (RWNV)", Tables.renderTable4(rows))
    assert(rows.size == 8)
  }

  test("learned loading never increases wall time") {
    for (d <- Seq("TW", "UK"); p <- Seq("Seq", "METIS"))
      assert(get(d, p, "Learned").wallTimeSec <= get(d, p, "Full").wallTimeSec * 1.01, s"$d $p")
  }

  test("learned loading reduces full block loads") {
    for (d <- Seq("TW", "UK"); p <- Seq("Seq", "METIS"))
      assert(get(d, p, "Learned").blockIOCount <= get(d, p, "Full").blockIOCount, s"$d $p")
  }

  test("learned loading performs on-demand I/Os (pure full performs none)") {
    for (d <- Seq("TW", "UK"); p <- Seq("Seq", "METIS")) {
      assert(get(d, p, "Full").vertexIOCount == 0, s"$d $p full")
      assert(get(d, p, "Learned").vertexIOCount > 0, s"$d $p learned")
    }
  }

  test("the METIS-like partition reduces block I/Os versus sequential (paper: -24% to -72%)") {
    for (d <- Seq("TW", "UK"); l <- Seq("Full", "Learned"))
      assert(get(d, "METIS", l).blockIOCount <= get(d, "Seq", l).blockIOCount, s"$d $l")
  }

  test("the METIS-like partition reduces wall time") {
    for (d <- Seq("TW", "UK"))
      assert(get(d, "METIS", "Full").wallTimeSec <= get(d, "Seq", "Full").wallTimeSec, d)
  }
}
