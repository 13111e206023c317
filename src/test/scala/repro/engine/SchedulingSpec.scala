package repro.engine

import org.scalatest.funsuite.AnyFunSuite

class SchedulingSpec extends AnyFunSuite {
  /** Pools holding `sizes(b)` walks each, all at hop `hops(b)` (0 if not given). */
  private def pools(sizes: Seq[Int], hops: Seq[Int] = Nil): WalkPools = {
    val p = new WalkPools(sizes.length)
    for ((n, b) <- sizes.zipWithIndex; k <- 0 until n)
      p.pool(b).part(0).add(k, if (hops.isEmpty) 0 else hops(b), 1, 2)
    p
  }

  /** The first `n` choices of a run, each passed the one before it. */
  private def picks(s: Scheduling, p: WalkPools, n: Int): Seq[Int] =
    (0 until n).scanLeft(-1)((last, slot) => s.choose(p, last, slot)).tail

  test("Alphabet cycles through all blocks including empty ones") {
    val s = new Scheduling.Alphabet
    assert(picks(s, pools(Seq(1, 0, 2)), 6) == Seq(0, 1, 2, 0, 1, 2))
  }

  test("Alphabet loads empty blocks") {
    assert(new Scheduling.Alphabet().loadsEmpty)
  }

  test("Alphabet stops when all pools are empty") {
    val s = new Scheduling.Alphabet
    assert(s.choose(pools(Seq(0, 0)), -1, 0) == -1)
  }

  test("Iteration skips empty blocks") {
    val s = new Scheduling.Iteration
    assert(picks(s, pools(Seq(1, 0, 2)), 4) == Seq(0, 2, 0, 2))
  }

  test("Iteration does not load empty blocks") {
    assert(!new Scheduling.Iteration().loadsEmpty)
  }

  test("Iteration stops when all pools are empty") {
    val s = new Scheduling.Iteration
    assert(s.choose(pools(Seq(0, 0, 0)), -1, 0) == -1)
  }

  test("Iteration resumes its cycle position across calls") {
    val s = new Scheduling.Iteration
    val p = pools(Seq(3, 3, 3))
    assert(s.choose(p, -1, 0) == 0)
    assert(s.choose(p, 0, 1) == 1)
    p.drain(2)
    assert(s.choose(p, 1, 2) == 0) // 2 skipped, wraps
  }

  test("Min-Height picks the pool with the smallest minimum hop") {
    val s = new Scheduling.MinHeight
    assert(s.choose(pools(Seq(2, 1, 5), Seq(10, 3, 7)), -1, 0) == 1)
  }

  test("Min-Height ignores empty pools") {
    val s = new Scheduling.MinHeight
    assert(s.choose(pools(Seq(0, 1), Seq(0, 9)), -1, 0) == 1)
  }

  test("Max-Sum picks the largest pool") {
    val s = new Scheduling.MaxSum
    assert(s.choose(pools(Seq(2, 9, 5)), -1, 0) == 1)
  }

  test("Max-Sum returns -1 when everything is empty") {
    assert(new Scheduling.MaxSum().choose(pools(Seq(0, 0)), -1, 0) == -1)
  }

  test("GraphWalker mix chooses Max-Sum about 80% of the time") {
    val s = new Scheduling.GraphWalkerMix
    val p = pools(Seq(10, 1), Seq(5, 1)) // Max-Sum -> 0, Min-Height -> 1
    val picks = (0L until 2000L).map(s.choose(p, -1, _))
    val frac0 = picks.count(_ == 0).toDouble / picks.size
    assert(math.abs(frac0 - 0.8) < 0.05, s"Max-Sum fraction $frac0")
  }

  test("GraphWalker mix is deterministic per slot") {
    val a = new Scheduling.GraphWalkerMix()
    val b = new Scheduling.GraphWalkerMix()
    val p = pools(Seq(10, 1), Seq(5, 1))
    for (slot <- 0L until 100L)
      assert(a.choose(p, -1, slot) == b.choose(p, -1, slot))
  }

  test("byName resolves all five strategies") {
    for (n <- Seq("Alphabet", "Iteration", "Min-Height", "Max-Sum", "GraphWalker"))
      assert(Scheduling.byName(n).strategyName == n)
    assertThrows[IllegalArgumentException](Scheduling.byName("nope"))
  }
}
