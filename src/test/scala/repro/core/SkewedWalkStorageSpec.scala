package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.disk.DiskSim
import repro.engine.{Init, WalkPools, Walker}
import repro.engine.EngineTestKit.{checkInvariants, records}
import repro.walk.WalkTask

/** The skewed walk storage (§4.3.1): the kernel routes a walk that leaves
  * memory to pool min(B(prev), B(cur)) of skewed `WalkPools`.
  */
class SkewedWalkStorageSpec extends AnyFunSuite {
  private val g = TestGraphs.ring(40)
  private val bg = TestGraphs.blocked(g, 4) // blocks of 10

  private def home(prev: Int, cur: Int): Int =
    new WalkPools(bg.nBlocks, skewed = true).home(bg.blockOf(prev), bg.blockOf(cur))

  test("homeBlock is min of previous and current block") {
    assert(home(prev = 5, cur = 15) == 0)  // blocks 0,1
    assert(home(prev = 15, cur = 5) == 0)  // blocks 1,0
    assert(home(prev = 35, cur = 22) == 2) // blocks 3,2
    // The traditional storage pools by current block.
    assert(new WalkPools(bg.nBlocks).home(bg.blockOf(35), bg.blockOf(22)) == 2)
    assert(new WalkPools(bg.nBlocks).home(bg.blockOf(5), bg.blockOf(15)) == 1)
  }

  test("a sweep routes each survivor to its home pool") {
    // Walks in pool 2 (pairs of blocks 2 and 3) step on the ring until they
    // leave blocks 2 and 3, to block 1 (home 1) or from 39 to 0 (home 0).
    val task = WalkTask.rwnv(g, walksPerVertex = 1, len = 30)
    val walker = new Walker(bg, task, new DiskSim(), null, null)
    val pools = new WalkPools(bg.nBlocks, skewed = true)
    for (v <- 20 until 30) pools.pool(2).part(0).add(v, hop = 1, prev = v + 10, cur = v)
    val walks = pools.drain(2)
    walker.advanceAll(walks, 2, Walker.Extending, marks = false, pools)
    assert(pools.size(1) + pools.size(0) == walker.survivors(2, 3) + walker.survivors(2, 2))
    assert(pools.size(1) + pools.size(0) > 0 && pools.size(2) == 0 && pools.size(3) == 0)
    checkInvariants(bg, pools)
  }

  test("pool N_B-1 can never be populated (distinct blocks)") {
    for (pb <- 0 until 4; cb <- 0 until 4 if pb != cb)
      assert(home(prev = pb * 10, cur = cb * 10) < 3)
  }

  test("a walk that never steps is dropped, not pooled") {
    // Vertex 0 of this graph is isolated: a walk starting there cannot step.
    val dg = TestGraphs.blocked(repro.graph.CsrGraph.fromEdges(4, Array(1, 2), Array(2, 3)), 2)
    val task = WalkTask.rwnv(dg.g, walksPerVertex = 1, len = 5)
    val pools = new WalkPools(dg.nBlocks, skewed = true)
    Init.run(new Walker(dg, task, new DiskSim(), null, null), pools)
    for (b <- 0 until dg.nBlocks; (id, _, prev, _) <- records(pools.pool(b)))
      assert(id != 0 && prev >= 0)
    checkInvariants(dg, pools)
  }

  test("checkInvariants passes for valid pools") {
    val pools = new WalkPools(bg.nBlocks, skewed = true)
    pools.pool(0).part(0).add(0, hop = 1, prev = 5, cur = 15)
    pools.pool(0).part(0).add(1, hop = 2, prev = 39, cur = 0)
    checkInvariants(bg, pools)
  }

  test("checkInvariants rejects a mis-pooled walk") {
    val pools = new WalkPools(bg.nBlocks, skewed = true)
    pools.pool(2).part(0).add(0, hop = 1, prev = 5, cur = 15) // belongs to pool 0
    assertThrows[IllegalArgumentException](checkInvariants(bg, pools))
  }

  test("checkInvariants rejects same-block prev/cur") {
    val pools = new WalkPools(bg.nBlocks, skewed = true)
    pools.pool(0).part(0).add(0, hop = 1, prev = 5, cur = 7)
    assertThrows[IllegalArgumentException](checkInvariants(bg, pools))
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
      val pools = new WalkPools(dbg.nBlocks, skewed = true)
      Init.run(new Walker(dbg, task, new DiskSim(), null, null), pools)
      assert(!pools.isEmpty, name)
      checkInvariants(dbg, pools)
    }
  }
}
