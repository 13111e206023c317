package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.DiskSim
import repro.engine.{Init, WalkPools, Walker}
import repro.engine.EngineTestKit.checkInvariants
import repro.engine.TestWalks.walk
import repro.walk.WalkTask

class SkewedWalkStorageSpec extends AnyFunSuite {
  private val g = TestGraphs.ring(40)
  private val bg = TestGraphs.blocked(g, 4) // blocks of 10

  test("homeBlock is min of previous and current block") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    assert(s.homeBlock(walk(0, prev = 5, cur = 15, hop = 1), 0) == 0)  // blocks 0,1
    assert(s.homeBlock(walk(1, prev = 15, cur = 5, hop = 2), 0) == 0)  // blocks 1,0
    assert(s.homeBlock(walk(2, prev = 35, cur = 22, hop = 3), 0) == 2) // blocks 3,2
  }

  test("persist places the walk in its home pool") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    s.persist(walk(0, prev = 25, cur = 35, hop = 4), 0) // blocks 2,3 -> pool 2
    assert(s.pools.size(2) == 1)
    assert(s.pools.size(0) == 0 && s.pools.size(3) == 0)
  }

  test("pool N_B-1 can never be populated (distinct blocks)") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    for (pb <- 0 until 4; cb <- 0 until 4 if pb != cb)
      s.persist(walk(pb * 4 + cb, prev = pb * 10, cur = cb * 10, hop = 1), 0)
    assert(s.pools.size(3) == 0)
  }

  test("rejects walks that never stepped (prev = -1)") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    assertThrows[IllegalArgumentException](s.persist(walk(0, prev = -1, cur = 5, hop = 0), 0))
  }

  test("checkInvariants passes for valid pools") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    s.persist(walk(0, prev = 5, cur = 15, hop = 1), 0)
    s.persist(walk(1, prev = 39, cur = 0, hop = 2), 0)
    checkInvariants(bg, s.pools)
  }

  test("checkInvariants rejects a mis-pooled walk") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    s.pools.add(2, walk(0, prev = 5, cur = 15, hop = 1), 0) // belongs to pool 0
    assertThrows[IllegalArgumentException](checkInvariants(bg, s.pools))
  }

  test("checkInvariants rejects same-block prev/cur") {
    val s = new SkewedWalkStorage(bg, new WalkPools(bg.nBlocks))
    s.pools.add(0, walk(0, prev = 5, cur = 7, hop = 1), 0)
    assertThrows[IllegalArgumentException](checkInvariants(bg, s.pools))
  }

  test("initialization leaves the skewed storage's invariants (Appendix B)") {
    val graphs = Seq(
      "ER" -> TestGraphs.blocked(TestGraphs.connected(120, 200, seed = 41), 6),
      "ring" -> TestGraphs.blocked(TestGraphs.ring(60), 5),
      "wheel" -> TestGraphs.blocked(TestGraphs.wheel(80), 4),
      "star" -> TestGraphs.blocked(TestGraphs.star(50), 4),
      "dangling" -> TestGraphs.blocked(TestGraphs.er(90, 120, seed = 44), 4),
    )
    for ((name, dbg) <- graphs) {
      val task = WalkTask.rwnv(dbg.g, walksPerVertex = 2, len = 20)
      val s = new SkewedWalkStorage(dbg, new WalkPools(dbg.nBlocks))
      Init.run(new Walker(dbg, task, new DiskSim(), null, null))(s.persist)
      assert(!s.pools.isEmpty, name)
      checkInvariants(dbg, s.pools)
    }
  }
}
