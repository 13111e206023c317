package repro.bench

/** Table 3: the bi-block execution engine versus the plain bucket engine.
  * Paper shape: Bi-Block cuts the block I/O *number* to 34-61% of PB, block
  * I/O *time* further (random loads became sequential), and wall time to
  * 16-60% — Bi-Block wins on every dataset and task.
  */
class Table3BiBlockBench extends BenchSpec {
  private lazy val rows = Tables.table3Rows()

  private def pair(dataset: String, task: String) =
    (Tables.metrics(rows, dataset, task, "PB"), Tables.metrics(rows, dataset, task, "Bi-Block"))

  private val cases =
    for (d <- Seq("LJ", "TW", "FR", "UK", "Kron29", "CW"); t <- Seq("RWNV", "PRNV")) yield (d, t)

  test("Table 3 renders") {
    printTable("Table 3: I/O efficiency of PB vs Bi-Block", Tables.renderTable3(rows))
    assert(rows.size == 24)
  }

  test("bi-block halves the block I/O number (paper: 34-61% of PB)") {
    for ((d, t) <- cases) {
      val (pb, bi) = pair(d, t)
      val ratio = bi.blockIOCount.toDouble / pb.blockIOCount
      assert(ratio > 0.3 && ratio < 0.8, s"$d $t block I/O ratio $ratio")
    }
  }

  test("bi-block reduces block I/O time at least as much as the count") {
    for ((d, t) <- cases) {
      val (pb, bi) = pair(d, t)
      assert(bi.blockIOTimeSec < pb.blockIOTimeSec, s"$d $t")
    }
  }

  test("bi-block wins wall time on every dataset and task") {
    for ((d, t) <- cases) {
      val (pb, bi) = pair(d, t)
      assert(bi.wallTimeSec < pb.wallTimeSec, s"$d $t")
    }
  }

  test("triangular scheduling converts random loads to sequential loads") {
    for ((d, t) <- cases) {
      val (pb, bi) = pair(d, t)
      val pbSeq = pb.blockIOSeqCount.toDouble / pb.blockIOCount
      val biSeq = bi.blockIOSeqCount.toDouble / bi.blockIOCount
      assert(biSeq > pbSeq, s"$d $t seq fraction: bi=$biSeq pb=$pbSeq")
    }
  }

  test("both bucket engines eliminate light vertex I/Os entirely") {
    rows.foreach(r => assert(r.m.vertexIOCount == 0, r.labels.mkString(" ")))
  }

  test("block I/O counts land within 2.5x of the paper's absolute numbers (RWNV)") {
    for (d <- Seq("LJ", "TW", "FR")) { // structure-matched analogs
      val (_, bi) = pair(d, "RWNV")
      val paper = PaperNumbers.table3((d, "RWNV", "Bi-Block"))._3
      val ratio = bi.blockIOCount.toDouble / paper
      assert(ratio > 0.4 && ratio < 2.5, s"$d ratio $ratio")
    }
  }
}
