package repro.walk

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  test("draws are deterministic in (seed, walkId, hop, stream)") {
    for (_ <- 1 to 5)
      assert(Rng.unit(1, 2, 3, Rng.MoveStream) == Rng.unit(1, 2, 3, Rng.MoveStream))
  }

  test("draws lie in [0, 1)") {
    for (seed <- 0L to 3L; w <- 0L to 50L; h <- 0 to 20) {
      val u = Rng.unit(seed, w, h, Rng.MoveStream)
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("different hops give different draws") {
    val draws = (0 until 100).map(h => Rng.unit(7, 1, h, Rng.MoveStream))
    assert(draws.distinct.size == 100)
  }

  test("different walks give different draws") {
    val draws = (0L until 100L).map(w => Rng.unit(7, w, 1, Rng.MoveStream))
    assert(draws.distinct.size == 100)
  }

  test("move and stop streams are independent") {
    val a = (0 until 100).map(h => Rng.unit(7, 1, h, Rng.MoveStream))
    val b = (0 until 100).map(h => Rng.unit(7, 1, h, Rng.StopStream))
    assert(a != b)
  }

  test("different seeds decorrelate") {
    val a = (0 until 100).map(h => Rng.unit(1, 1, h, Rng.MoveStream))
    val b = (0 until 100).map(h => Rng.unit(2, 1, h, Rng.MoveStream))
    assert(a.zip(b).count { case (x, y) => math.abs(x - y) < 1e-3 } < 5)
  }

  test("mean of many draws is near 1/2") {
    val n = 20000
    val mean = (0 until n).map(i => Rng.unit(11, i, i % 97, Rng.MoveStream)).sum / n
    assert(math.abs(mean - 0.5) < 0.01, s"mean $mean")
  }

  test("variance of many draws is near 1/12") {
    val n = 20000
    val xs = (0 until n).map(i => Rng.unit(13, i, i % 89, Rng.MoveStream))
    val mean = xs.sum / n
    val variance = xs.map(x => (x - mean) * (x - mean)).sum / n
    assert(math.abs(variance - 1.0 / 12) < 0.01, s"variance $variance")
  }

  test("decile histogram is roughly flat") {
    val n = 50000
    val counts = new Array[Int](10)
    for (i <- 0 until n) counts((Rng.unit(17, i, 0, Rng.MoveStream) * 10).toInt) += 1
    for (c <- counts) assert(math.abs(c - n / 10.0) < n * 0.01, counts.toSeq)
  }

  test("rehash is deterministic, in [0, 1) and decorrelated from its input") {
    val us = (0 until 20000).map(i => Rng.unit(19, i, 0, Rng.MoveStream))
    val hs = us.map(Rng.rehash)
    assert(us.map(Rng.rehash) == hs)
    assert(hs.forall(h => h >= 0.0 && h < 1.0))
    assert(hs.distinct.size == hs.size)
    assert(math.abs(hs.sum / hs.size - 0.5) < 0.01)
    val mu = us.sum / us.size; val mh = hs.sum / hs.size
    val cov = us.zip(hs).map { case (u, h) => (u - mu) * (h - mh) }.sum / us.size
    assert(math.abs(cov * 12) < 0.03, s"correlation ${cov * 12}")
    assert(Rng.rehash(0.0) >= 0.0 && Rng.rehash(Math.nextDown(1.0)) < 1.0)
  }
}
