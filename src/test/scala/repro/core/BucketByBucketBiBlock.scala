package repro.core

import repro.disk.DiskSim
import scala.collection.mutable.ArrayBuffer
import repro.engine.{EngineTestKit, Init, Scheduling, TraceCollector, WalkEngine, WalkPools, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** An exact reference for the bi-block engine's charges: the slot body the
  * engine had before it swept a slot's walks in one pass. Each slot splits
  * the drained walks into buckets by Eq. 4, then for each ancillary block
  * `i` in `b+1 .. N_B-1` with walks it loads `i` from the bucket's records
  * (η from their count, on demand the vertices they activate), steps them
  * one by one on this thread, charging a light vertex I/O for each
  * non-activated vertex of `i` a step needs, then extends or persists each
  * survivor (Alg. 2) and logs the load's sample, one bucket at a time. A
  * bucket is a buffer of (id, hop, prev, cur) records; the steps it takes
  * are written to the corpus through `put`, and a walk's length through
  * `end` once it ends.
  *
  * With `permuteSeed`, each bucket's records are shuffled under that seed
  * before they step, so a run checks that every count is free of the
  * order walks take within a bucket.
  */
final class BucketByBucketBiBlock(policy: BlockLoading.Policy, loadLog: LoadLogCollector = null,
                                  permuteSeed: Option[Long] = None) extends WalkEngine {
  def name: String = "BiBlock(bucket by bucket)"

  def run(bg: BlockedGraph, task: WalkTask, sim: DiskSim,
          visits: Array[Long] = null, trace: TraceCollector = null): DiskSim.Metrics = {
    val g = bg.g
    val nB = bg.nBlocks
    val walker = new Walker(bg, task, sim, visits, trace)
    val pools = new WalkPools(nB, skewed = true)
    Init.run(walker, pools)
    val rng = permuteSeed.map(new scala.util.Random(_))

    val buckets = Array.fill(nB)(new ArrayBuffer[(Long, Int, Int, Int)])
    // Iteration's slot loop, one drained pool per time slot.
    val iteration = new Scheduling.Iteration
    var last = Int.MaxValue
    var slot = 0L
    var b = iteration.choose(pools, -1, slot)
    while (b >= 0) {
      val walks = pools.drain(b)
      sim.timeSlots += 1
      if (b <= last) sim.supersteps += 1
      last = b
      sim.walkIO(walks.length)
      for ((id, hop, prev, cur) <- EngineTestKit.records(walks)) {
        val pre = bg.blockOf(prev)
        buckets(if (pre == b) bg.blockOf(cur) else pre) += ((id, hop, prev, cur))
      }
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      for (i <- b + 1 until nB if buckets(i).nonEmpty) {
        val bucket = rng.fold(buckets(i).toVector)(_.shuffle(buckets(i).toVector))
        val lo = bg.blockStart(i)
        def inI(v: Int) = v >= 0 && bg.blockOf(v) == i
        val t0 = sim.wallTimeSec
        val eta = BlockLoading.eta(bucket.length, bg.verticesInBlock(i))
        // Under on-demand load, the vertices of i in memory.
        val resident: java.util.BitSet = policy.mode(i, eta) match {
          case BlockLoading.Full =>
            sim.readBlock(bg.blockOffset(i), bg.blockBytes(i))
            null
          case BlockLoading.OnDemand =>
            val bits = new java.util.BitSet
            for ((_, _, prev, cur) <- bucket; v <- Seq(prev, cur) if inI(v))
              bits.set(v - lo)
            if (!bits.isEmpty) sim.readVertices(bits.cardinality)
            bits
        }
        for ((id, hop0, prev0, cur0) <- bucket) {
          var prev = prev0
          var cur = cur0
          var hop = hop0
          var live = true
          while (live && (bg.blockOf(cur) == b || bg.blockOf(cur) == i)) {
            if (resident != null && inI(cur) && !resident.get(cur - lo)) {
              sim.readVertices(1)
              resident.set(cur - lo)
            }
            sim.chargeSteps(1, if (task.model.isSecondOrder && prev >= 0) g.degree(cur) else 0)
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
            val cb = bg.blockOf(cur)
            if (cb > i && bg.blockOf(prev) == b) buckets(cb) += ((id, hop, prev, cur)) // bucket-extending
            else { // skewed storage
              pools.pool(math.min(bg.blockOf(prev), cb)).part(0).add(id, hop, prev, cur)
              sim.walkIO(1)
            }
          } else if (trace != null) trace.end(id, hop + 1)
        }
        buckets(i).clear()
        if (loadLog != null) loadLog.record(i, eta, sim.wallTimeSec - t0)
      }
      slot += 1
      b = iteration.choose(pools, b, slot)
    }
    walker.finish()
  }
}
