package repro.walk

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs

class WalkTaskSpec extends AnyFunSuite {
  private val g = TestGraphs.connected(50, 30, seed = 31)

  test("RWNV starts the configured number of walks per vertex") {
    val t = WalkTask.rwnv(g, walksPerVertex = 3, len = 10)
    assert(t.totalWalks == 150)
    assert(t.starts.forall(_._2 == 3))
    assert(t.starts.map(_._1).toSeq == (0 until 50))
  }

  test("RWNV never stops early") {
    val t = WalkTask.rwnv(g, walksPerVertex = 1, len = 10)
    for (w <- 0L until 20L; h <- 1 until 10) assert(!t.stopsAfter(w, h))
    for (w <- 0L until 20L) assert(t.stopsAfter(w, 10))
  }

  test("RWNV uses the Node2vec model with given p, q") {
    val t = WalkTask.rwnv(g, p = 2.0, q = 0.5)
    assert(t.model == Node2vecModel(2.0, 0.5))
  }

  test("PRNV total sample size is 4|V|") {
    val t = WalkTask.prnv(g, nQueries = 10)
    assert(t.totalWalks == 200) // 4 * 50
    assert(t.starts.length == 10)
  }

  test("PRNV queries are spread over the ID range") {
    val t = WalkTask.prnv(g, nQueries = 5)
    assert(t.starts.map(_._1).toSeq == Seq(0, 10, 20, 30, 40))
  }

  test("PRNV stop probability matches the decay factor") {
    val t = WalkTask.prnv(g, decay = 0.85)
    val n = 200000
    val stops = (0 until n).count(i => t.stopsAfter(i.toLong, 1))
    assert(math.abs(stops.toDouble / n - 0.15) < 0.005)
  }

  test("PRNV always stops at the length cap") {
    val t = WalkTask.prnv(g, maxLen = 20)
    for (w <- 0L until 50L) assert(t.stopsAfter(w, 20))
  }

  test("DeepWalk task uses the first-order model, 10 x 80 defaults") {
    val t = WalkTask.deepwalk(g)
    assert(t.model == DeepWalkModel)
    assert(t.totalWalks == 500 && t.maxLen == 80)
  }

  test("stop draws are deterministic per (walk, hop)") {
    val t = WalkTask.prnv(g)
    for (w <- 0L until 30L; h <- 1 until 20)
      assert(t.stopsAfter(w, h) == t.stopsAfter(w, h))
  }

  test("move draws are deterministic and within [0,1)") {
    val t = WalkTask.rwnv(g)
    for (w <- 0L until 30L; h <- 0 until 10) {
      val u = t.moveDraw(w, h)
      assert(u >= 0 && u < 1)
      assert(u == t.moveDraw(w, h))
    }
  }

  test("different task seeds give different trajectories of draws") {
    val a = WalkTask.rwnv(g, seed = 1)
    val b = WalkTask.rwnv(g, seed = 2)
    val da = (0 until 50).map(h => a.moveDraw(1, h))
    val db = (0 until 50).map(h => b.moveDraw(1, h))
    assert(da != db)
  }

  test("a task must let every walk take its first step") {
    def task(maxLen: Int) = WalkTask("t", DeepWalkModel, Array((0, 1)), maxLen, 0.0, 1)
    task(1)
    for (len <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](task(len))
      assert(e.getMessage.contains(s"maxLen $len"), e.getMessage)
    }
  }

  test("a task rejects a negative walk count") {
    def task(starts: Array[(Int, Int)]) = WalkTask("t", DeepWalkModel, starts, 10, 0.0, 1)
    task(Array((0, 0), (1, 3)))
    // Otherwise the -2 would cancel two of the 3 walks in totalWalks.
    val e = intercept[IllegalArgumentException](task(Array((0, 3), (1, -2))))
    assert(e.getMessage.contains("negative walk count in start (1,-2)"), e.getMessage)
  }
}
