package repro.bench

/** Figure 8 analog: end-to-end comparison of SOGW, SGSC and GraSorw on the
  * six real-graph analogs. Paper headline: GraSorw improves RWNV by
  * 1.81x-95x and PRNV by 1.43x-19.1x, with the I/O time collapsing because
  * massive light vertex I/Os become sequential block I/Os.
  */
class EndToEndBench extends BenchSpec {
  private lazy val rows = Tables.endToEndRows()

  private def get(d: String, t: String, s: String) = Tables.metrics(rows, d, t, s)

  private val datasets = Seq("LJ", "TW", "FR", "UK", "Kron29", "CW")

  test("end-to-end table renders") {
    printTable("Figure 8 analog: end-to-end three-system comparison", Tables.renderEndToEnd(rows))
    assert(rows.size == 36)
  }

  test("GraSorw beats both baselines on every dataset and task") {
    for (d <- datasets; t <- Seq("RWNV", "PRNV")) {
      assert(get(d, t, "GraSorw").wallTimeSec < get(d, t, "SOGW").wallTimeSec, s"$d $t vs SOGW")
      assert(get(d, t, "GraSorw").wallTimeSec < get(d, t, "SGSC").wallTimeSec, s"$d $t vs SGSC")
    }
  }

  test("the improvement is about an order of magnitude on the power-law graphs") {
    for (d <- Seq("TW", "FR", "Kron29")) {
      val speedup = get(d, "RWNV", "SOGW").wallTimeSec / get(d, "RWNV", "GraSorw").wallTimeSec
      assert(speedup > 5, s"$d RWNV speedup $speedup")
    }
  }

  test("SOGW's cost is dominated by light vertex I/Os (Figure 1 profile)") {
    for (d <- datasets) {
      val m = get(d, "RWNV", "SOGW")
      assert(m.vertexIOTimeSec > m.blockIOTimeSec, d)
      assert(m.vertexIOTimeSec > m.execTimeSec, d)
    }
  }

  test("GraSorw eliminates vertex I/Os up to the on-demand loads") {
    for (d <- datasets) {
      val sogw = get(d, "RWNV", "SOGW")
      val gra = get(d, "RWNV", "GraSorw")
      assert(gra.vertexIOTimeSec < sogw.vertexIOTimeSec / 10, d)
    }
  }

  test("SGSC's cache helps it beat SOGW on most graphs (paper: slightly faster)") {
    val better = datasets.count(d =>
      get(d, "RWNV", "SGSC").wallTimeSec < get(d, "RWNV", "SOGW").wallTimeSec)
    assert(better >= 3, s"SGSC faster on only $better/6 graphs")
  }
}
