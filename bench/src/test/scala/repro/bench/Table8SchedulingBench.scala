package repro.bench

/** Table 8 (Appendix A): current-block scheduling strategies under DeepWalk
  * 10x80. Paper shape: Iteration-based is best or near-best everywhere,
  * Alphabet pays slightly more (it loads empty blocks), Min-Height is the
  * consistent loser; no strategy wins everywhere.
  */
class Table8SchedulingBench extends BenchSpec {
  private lazy val rows = Tables.table8Rows()

  private def get(d: String, s: String) = Tables.metrics(rows, d, s)
  private val datasets = Seq("LJ", "TW", "FR", "UK")

  test("Table 8 renders") {
    printTable("Table 8: current-block scheduling strategies (DeepWalk 10x80)",
               Tables.renderTable8(rows))
    assert(rows.size == 20)
  }

  test("Iteration never loads more blocks than Alphabet") {
    for (d <- datasets)
      assert(get(d, "Iteration").blockIOCount <= get(d, "Alphabet").blockIOCount, d)
  }

  test("Min-Height incurs the most block I/Os on every dataset") {
    for (d <- datasets) {
      val mh = get(d, "Min-Height").blockIOCount
      for (s <- Tables.t8Strategies if s != "Min-Height")
        assert(mh >= get(d, s).blockIOCount, s"$d: $s beats Min-Height")
    }
  }

  test("Iteration is within 5% of the best strategy everywhere (paper: best in most cases)") {
    for (d <- datasets) {
      val best = Tables.t8Strategies.map(get(d, _).blockIOCount).min
      assert(get(d, "Iteration").blockIOCount <= best * 1.05, d)
    }
  }

  test("block I/O counts land within 2.5x of the paper (LJ, TW, FR)") {
    for (d <- Seq("LJ", "TW", "FR"); s <- Tables.t8Strategies) {
      val ratio = get(d, s).blockIOCount.toDouble / PaperNumbers.table8((d, s))
      assert(ratio > 0.4 && ratio < 2.5, s"$d $s ratio $ratio")
    }
  }
}
