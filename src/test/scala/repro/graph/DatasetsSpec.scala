package repro.graph

import repro.SparkSpec

/** Sanity of the lite dataset registry. Uses the two smallest specs to keep
  * test time low; full builds are exercised by the bench suites.
  */
class DatasetsSpec extends SparkSpec {
  private implicit val s: org.apache.spark.sql.SparkSession = spark

  test("registry names are unique (the graph caches key on them)") {
    val names = (Datasets.real ++ Datasets.synthetic).map(_.name)
    assert(names.distinct.size == names.size)
  }

  test("real datasets carry the paper's block counts") {
    val expected = Map("LJ" -> 17, "TW" -> 18, "FR" -> 27, "UK" -> 25, "Kron29" -> 13, "CW" -> 9)
    Datasets.real.foreach(spec => assert(spec.nBlocks == expected(spec.name)))
  }

  test("synthetic family has the paper's 11 graphs in order") {
    assert(Datasets.synthetic.map(_.name) ==
      Seq("CirculantG", "RandomG", "BASF", "RandomG1", "RandomG2", "RandomG3",
          "RandomG4", "RandomG5", "SBM1", "SBM2", "SBM3"))
  }

  test("csr build is cached (same instance returned)") {
    val a = Datasets.csr(Datasets.randomG5)
    val b = Datasets.csr(Datasets.randomG5)
    assert(a eq b)
  }

  test("RandomG5 is a complete graph (the paper's densest rung)") {
    val g = Datasets.csr(Datasets.randomG5)
    assert(g.nV == 160)
    assert(g.nEdgesUndirected == 160L * 159 / 2)
  }

  test("blocked builds respect the spec's block count") {
    val bg = Datasets.blocked(Datasets.randomG5, "seq")
    assert(bg.nBlocks == Datasets.randomG5.nBlocks)
    assert(bg.g.nV == 160)
  }

  test("SBM1 is denser inside blocks than across (community structure)") {
    val g = Datasets.csr(Datasets.sbm1)
    val bg = Datasets.blocked(Datasets.sbm1, "seq")
    assert(bg.edgeCut < 0.9) // pIn=0.9 pOut=0.3: substantial in-block mass
    assert(g.avgDegree > 100) // extremely dense, as in the paper
  }

  test("density ladder increases monotonically (RandomG1 .. RandomG5)") {
    val densities = Seq(Datasets.randomG1, Datasets.randomG2, Datasets.randomG3,
                        Datasets.randomG4, Datasets.randomG5)
      .map { sp => val g = Datasets.csr(sp); g.avgDegree / (g.nV - 1) }
    assert(densities == densities.sorted, densities.toString)
  }
}
