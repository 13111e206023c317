package repro.bench

/** Table 7: first-order (DeepWalk) execution — GraphWalker vs GraSorw
  * without learning-based loading vs full GraSorw. Paper shape: the three
  * systems are comparable (GraSorw is not specialized for first-order), but
  * GraSorw's block I/O time is the least on every dataset (85-99% of
  * GraphWalker's).
  */
class Table7FirstOrderBench extends BenchSpec {
  private lazy val rows = Tables.table7Rows()

  private def get(d: String, s: String) = Tables.metrics(rows, d, s)
  private val datasets = Seq("LJ", "TW", "FR", "UK")

  test("Table 7 renders") {
    printTable("Table 7: first-order random walk systems (DeepWalk 10x80)", Tables.renderTable7(rows))
    assert(rows.size == 12)
  }

  test("GraSorw's block I/O time is the least on every dataset") {
    for (d <- datasets) {
      val g = get(d, "GraSorw").blockIOTimeSec
      assert(g <= get(d, "GraphWalker").blockIOTimeSec, d)
      assert(g <= get(d, "GraSorw-No-LBL").blockIOTimeSec, d)
    }
  }

  test("the three systems are comparable in wall time (within 15%)") {
    for (d <- datasets) {
      val walls = Seq("GraphWalker", "GraSorw-No-LBL", "GraSorw").map(get(d, _).wallTimeSec)
      assert(walls.max / walls.min < 1.15, s"$d walls $walls")
    }
  }

  test("GraSorw is never slower than GraphWalker's state-aware scheduling") {
    for (d <- datasets)
      assert(get(d, "GraSorw").wallTimeSec <= get(d, "GraphWalker").wallTimeSec * 1.02, d)
  }

  test("execution time dominates first-order walks (I/O is not the bottleneck)") {
    for (d <- datasets; s <- Seq("GraphWalker", "GraSorw")) {
      val m = get(d, s)
      assert(m.execTimeSec > m.blockIOTimeSec, s"$d $s")
    }
  }

  test("first-order walks incur no light vertex I/Os under full load") {
    for (d <- datasets)
      assert(get(d, "GraphWalker").vertexIOCount == 0, d)
  }
}
