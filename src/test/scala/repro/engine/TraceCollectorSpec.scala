package repro.engine

import scala.util.Random
import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.DiskSim
import repro.walk.{Node2vecModel, WalkTask}

class TraceCollectorSpec extends AnyFunSuite {

  /** Log every walk of `walks` into a collector, one vertex at a time, in a
    * random interleaving that keeps each walk's own order (as buckets do),
    * and seal it.
    */
  private def logged(walks: IndexedSeq[IndexedSeq[Int]], seed: Int): TraceCollector = {
    val t = new TraceCollector(walks.length)
    val next = new Array[Int](walks.length)
    val live = scala.collection.mutable.ArrayBuffer.from(walks.indices.filter(walks(_).nonEmpty))
    val rng = new Random(seed)
    while (live.nonEmpty) {
      val i = rng.nextInt(live.length)
      val w = live(i)
      val h = next(w)
      if (h == 0) t.start(w.toLong, walks(w)(h)) else t.step(w.toLong, walks(w)(h))
      next(w) += 1
      if (next(w) == walks(w).length) { live(i) = live.last; live.remove(live.length - 1) }
    }
    t.seal()
    t
  }

  private def assertCorpus(t: TraceCollector, walks: IndexedSeq[IndexedSeq[Int]]): Unit = {
    assert(t.nWalks == walks.length)
    for (w <- walks.indices) {
      assert(t.length(w) == walks(w).length, s"walk $w")
      assert(t.path(w).toSeq == walks(w), s"walk $w")
      for (h <- walks(w).indices) assert(t.vertex(w, h) == walks(w)(h))
    }
  }

  test("interleaved starts and steps of many walks seal into per-walk hop order") {
    val rng = new Random(3)
    val walks = IndexedSeq.tabulate(1000)(w => IndexedSeq.fill(1 + w % 41)(rng.nextInt(Int.MaxValue)))
    assert(walks.map(_.length).sum > 2 * TraceCollector.ChunkSize)
    assertCorpus(logged(walks, seed = 4), walks)
  }

  test("a walk that starts on a dangling vertex has length 1") {
    val walks = IndexedSeq(IndexedSeq(5, 6, 7), IndexedSeq(9), IndexedSeq(1, 2))
    val t = logged(walks, seed = 1)
    assert(t.length(1) == 1 && t.path(1).toSeq == Seq(9) && t.vertex(1, 0) == 9)
    assertThrows[IndexOutOfBoundsException](t.vertex(1, 1))
    assertThrows[IndexOutOfBoundsException](t.vertex(1, -1))
  }

  test("the last walk id nWalks - 1 is stored, and unlogged walks are empty") {
    val t = new TraceCollector(7)
    t.start(6L, 42); t.step(6L, 43)
    t.seal()
    assert(t.path(6).toSeq == Seq(42, 43))
    assert((0 until 6).forall(t.length(_) == 0))
  }

  test("an id outside the corpus fails when the log is sealed") {
    val t = new TraceCollector(3)
    t.start(3L, 0)
    val e = intercept[IllegalStateException](t.seal())
    assert(e.getMessage.contains("walk 3"))
  }

  test("walks crossing chunk boundaries keep their order") {
    val c = TraceCollector.ChunkSize
    for (total <- Seq(c - 1, c, c + 1, 3 * c + 5)) {
      // Two walks alternate, so each chunk holds both and each walk spans every chunk.
      val walks = IndexedSeq(IndexedSeq.tabulate((total + 1) / 2)(h => h), IndexedSeq.tabulate(total / 2)(h => 1000000 + h))
      val t = new TraceCollector(2)
      var h = 0
      while (h < walks(0).length) {
        for (w <- 0 to 1 if h < walks(w).length)
          if (h == 0) t.start(w.toLong, walks(w)(h)) else t.step(w.toLong, walks(w)(h))
        h += 1
      }
      t.seal()
      assertCorpus(t, walks)
    }
  }

  test("the boxed paths view equals path(w) for every walk") {
    val rng = new Random(8)
    val walks = IndexedSeq.tabulate(300)(w => IndexedSeq.fill(w % 5)(rng.nextInt(1000)))
    val t = logged(walks, seed = 9)
    assert(t.paths.length == t.nWalks)
    for (w <- walks.indices) assert(t.paths(w).toSeq == t.path(w).toSeq)
    assert(t.paths eq t.paths) // built once
  }

  test("the corpus cannot be read before it is sealed, nor appended to after") {
    val t = new TraceCollector(2)
    t.start(0L, 1); t.step(0L, 2)
    for (read <- Seq(() => t.length(0), () => t.vertex(0, 0), () => t.path(0), () => t.paths)) {
      val e = intercept[IllegalStateException](read())
      assert(e.getMessage.contains("before the run sealed it"))
    }
    t.seal()
    t.seal() // idempotent
    assert(t.path(0).toSeq == Seq(1, 2))
    val e = intercept[IllegalStateException](t.start(1L, 3))
    assert(e.getMessage.contains("sealed"))
  }

  test("an empty corpus seals to empty walks") {
    val none = new TraceCollector(0)
    none.seal()
    assert(none.paths.isEmpty)
    val unlogged = new TraceCollector(3)
    unlogged.seal()
    assert((0 until 3).forall(unlogged.length(_) == 0))
  }

  test("the range seal gives every walk its words for corpora of any size") {
    // Ranges are 2^k walks, at most 16: 16 and 17 walks straddle ranges of
    // one and two, 255 and 257 of 16 and 32, and 1000 is no multiple.
    for (n <- Seq(0, 1, 2, 15, 16, 17, 31, 32, 33, 255, 256, 257, 1000, 4099)) {
      val rng = new Random(n)
      val walks = IndexedSeq.tabulate(n)(w => IndexedSeq.fill(w % 7)(rng.nextInt(Int.MaxValue)))
      val t = logged(walks, seed = n + 1)
      assert(t.ranges >= 1 && t.ranges <= 16 && (n <= 16 || t.ranges > 8), s"$n walks in ${t.ranges} ranges")
      assert(n == 0 || t.rangeOf(n - 1L) == t.ranges - 1)
      assertCorpus(t, walks)
    }
  }

  test("a walk's words keep their order when they arrive in segments from several lanes and sweeps") {
    val rng = new Random(12)
    val n = 1000
    val walks = IndexedSeq.tabulate(n)(w => IndexedSeq.fill(1 + rng.nextInt(60))(rng.nextInt(Int.MaxValue)))
    val t = new TraceCollector(n)
    val next = new Array[Int](n)
    // Four lanes with a log per range; each sweep takes each walk, on a
    // random lane, a few steps on; the collector's own words are the starts.
    val lanes = Array.fill(4, t.ranges)(new TraceLog)
    for (w <- 0 until n) { t.start(w.toLong, walks(w)(0)); next(w) = 1 }
    var sweeps = 0
    while (next.indices.exists(w => next(w) < walks(w).length)) {
      for (w <- rng.shuffle(next.indices.toVector) if next(w) < walks(w).length) {
        val log = lanes(rng.nextInt(4))(t.rangeOf(w.toLong))
        val to = math.min(walks(w).length, next(w) + 1 + rng.nextInt(3))
        while (next(w) < to) { log.add(TraceCollector.word(w.toLong, walks(w)(next(w)))); next(w) += 1 }
      }
      for (lane <- lanes; r <- 0 until t.ranges) t.take(r, lane(r))
      sweeps += 1
    }
    assert(sweeps > 10 && walks.map(_.length).sum > 4 * TraceCollector.ChunkSize)
    // The ranges may be sorted in any order, each once, before the corpus is published.
    val ranges = t.beginSeal()
    for (r <- rng.shuffle((0 until ranges).toVector)) t.sealRange(r)
    t.endSeal()
    assertCorpus(t, walks)
  }

  test("the corpus cannot be read while it is sealed, and no lane words are taken after") {
    val t = new TraceCollector(40)
    val log = new TraceLog
    t.start(33L, 1); log.add(TraceCollector.word(33L, 2))
    t.take(t.rangeOf(33L), log)
    assert(t.beginSeal() == t.ranges)
    for (r <- 0 until t.ranges) t.sealRange(r)
    intercept[IllegalStateException](t.path(33))
    t.endSeal()
    assert(t.beginSeal() == 0) // sealed once
    assert(t.path(33).toSeq == Seq(1, 2))
    log.add(TraceCollector.word(33L, 3))
    val e = intercept[IllegalStateException](t.take(t.rangeOf(33L), log))
    assert(e.getMessage.contains("sealed"))
  }

  test("an id outside the corpus fails its range's sort, from the collector or a lane") {
    for (n <- Seq(3, 40, 1000); bad <- Seq(n.toLong, n + 100L)) {
      val t = new TraceCollector(n)
      t.start(0L, 5)
      t.start(bad, 7)
      val e = intercept[IllegalStateException](t.seal())
      assert(e.getMessage == s"walk $bad logged in a corpus of $n walks")
      val u = new TraceCollector(n)
      val log = new TraceLog
      log.add(TraceCollector.word(bad, 7))
      u.take(u.rangeOf(bad), log)
      val f = intercept[IllegalStateException](u.seal())
      assert(f.getMessage == s"walk $bad logged in a corpus of $n walks")
    }
  }

  test("a collector must hold every walk of the task") {
    assertThrows[IllegalArgumentException](new TraceCollector(-1))
    val bg = TestGraphs.blocked(TestGraphs.ring(10), 2)
    def task(starts: Array[(Int, Int)]) = WalkTask("t", Node2vecModel(1, 1), starts, 10, 0.0, 1)
    val ten = task(Array((0, 4), (3, 6)))
    new Walker(bg, ten, new DiskSim(), null, new TraceCollector(10))
    new Walker(bg, ten, new DiskSim(), null, new TraceCollector(11))
    val e = intercept[IllegalArgumentException](new Walker(bg, ten, new DiskSim(), null, new TraceCollector(9)))
    assert(e.getMessage.contains("cannot hold"))
    // `totalWalks.toInt` wraps above 2^31 - 1 walks: to a negative size, which
    // the collector rejects, or to a small one, which the Walker rejects.
    val twoPow31 = task(Array((0, Int.MaxValue), (1, 1)))
    assert(twoPow31.totalWalks.toInt < 0)
    assertThrows[IllegalArgumentException](new TraceCollector(twoPow31.totalWalks.toInt))
    val wrapped = task(Array((0, Int.MaxValue), (1, Int.MaxValue), (2, 5)))
    assert(wrapped.totalWalks.toInt == 3)
    assertThrows[IllegalArgumentException](
      new Walker(bg, wrapped, new DiskSim(), null, new TraceCollector(wrapped.totalWalks.toInt)))
  }
}
