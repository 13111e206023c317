package repro.engine

import repro.core.{BlockLoading, LoadLogCollector}
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** An exact reference for the first-order engine's charges under Iteration:
  * one time slot at a time, on this thread. Walks are pooled by current
  * block, numbered in `task.starts` order. Each slot drains the pool Iteration
  * picks and loads its block from the slot's records (η from their count, on
  * demand the vertices they activate), charges their walk read, then steps
  * each walk while it stays in the block, charging a light vertex I/O for
  * each non-activated vertex a step needs, and persists each survivor to the
  * pool of its new current block, one walk I/O each; it ends with the load's
  * (block, η, t) sample. A walk's source is written to the visits and corpus
  * on its first step, each step's vertex through `put`, and its length
  * through `end` once it ends.
  */
final class SlotBySlotFirstOrder(policy: BlockLoading.Policy, loadLog: LoadLogCollector = null) extends WalkEngine {
  def name: String = "FirstOrder(slot by slot)"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val g = bg.g
    val walker = new Walker(bg, task, sim, visits, trace)
    val pools = new WalkPools(bg.nBlocks)
    var nextId = 0L
    for ((v, count) <- task.starts; _ <- 0 until count) {
      pools.pool(bg.blockOf(v)).part(0).add(nextId, 0, -1, v)
      nextId += 1
    }

    val iteration = new Scheduling.Iteration
    var slot = 0L
    var b = iteration.choose(pools, -1, slot)
    while (b >= 0) {
      val walks = EngineTestKit.records(pools.drain(b))
      sim.timeSlots += 1
      val lo = bg.blockStart(b)
      def inB(v: Int) = v >= 0 && bg.blockOf(v) == b
      val t0 = sim.wallTimeSec
      val eta = BlockLoading.eta(walks.length, bg.verticesInBlock(b))
      // Under on-demand load, the vertices of b in memory.
      val resident: java.util.BitSet = policy.mode(b, eta) match {
        case BlockLoading.Full =>
          sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
          null
        case BlockLoading.OnDemand =>
          val bits = new java.util.BitSet
          for ((_, _, prev, cur) <- walks; v <- Seq(prev, cur) if inB(v)) bits.set(v - lo)
          if (!bits.isEmpty) sim.readVertices(bits.cardinality)
          bits
      }
      sim.walkIO(walks.length)
      for ((id, hop0, prev0, cur0) <- walks) {
        var prev = prev0
        var cur = cur0
        var hop = hop0
        if (hop == 0) {
          if (visits != null) visits(cur) += 1
          if (trace != null) trace.put(id, 0, cur)
        }
        var live = true
        while (live && bg.blockOf(cur) == b) {
          if (resident != null && !resident.get(cur - lo)) {
            sim.readVertices(1)
            resident.set(cur - lo)
          }
          sim.chargeSteps(1, 0)
          val z = task.model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
          if (z < 0) live = false
          else {
            prev = cur
            cur = z
            hop += 1
            if (visits != null) visits(z) += 1
            if (trace != null) trace.put(id, hop, z)
            live = !task.stopsAfter(id, hop)
          }
        }
        if (live) {
          pools.pool(bg.blockOf(cur)).part(0).add(id, hop, prev, cur)
          sim.walkIO(1)
        } else if (trace != null) trace.end(id, hop + 1)
      }
      if (loadLog != null) loadLog.record(b, eta, sim.wallTimeSec - t0)
      slot += 1
      b = iteration.choose(pools, b, slot)
    }
    walker.finish()
  }
}
