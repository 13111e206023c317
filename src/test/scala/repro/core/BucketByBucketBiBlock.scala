package repro.core

import repro.disk.DiskSim
import repro.engine.{CurrentBlockDriver, EngineTestKit, Init, Scheduling, TraceCollector, WalkBuffer, WalkEngine, Walker}
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** An exact reference for the bi-block engine's charges: the slot body the
  * engine had before it swept a slot's walks in one pass. Each slot splits
  * the drained walks into buckets by Eq. 4, then for each ancillary block
  * `i` in `b+1 .. N_B-1` with walks it loads `i` from the bucket's records
  * (η from their count, on demand the vertices they activate), steps them
  * one by one on this thread, charging a light vertex I/O for each
  * non-activated vertex of `i` a step needs, then extends or persists each
  * survivor (Alg. 2) and logs the load's sample, one bucket at a time.
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
    val driver = new CurrentBlockDriver(walker, new Scheduling.Iteration, skewed = true)
    Init.run(walker, driver.pools)
    val rng = permuteSeed.map(new scala.util.Random(_))

    val buckets = Array.fill(nB)(new WalkBuffer)
    var last = Int.MaxValue
    driver.run { (b, walks) =>
      if (b <= last) sim.supersteps += 1
      last = b
      sim.walkIO(walks.length)
      for ((id, hop, prev, cur) <- EngineTestKit.records(walks)) {
        val pre = bg.blockOf(prev)
        buckets(if (pre == b) bg.blockOf(cur) else pre).add(id, hop, prev, cur)
      }
      sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
      for (i <- b + 1 until nB if buckets(i).nonEmpty) {
        val bucket = rng.fold(buckets(i))(shuffled(buckets(i), _))
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
            for (k <- 0 until bucket.length; v <- Seq(bucket.prev(k), bucket.cur(k)) if inI(v))
              bits.set(v - lo)
            if (!bits.isEmpty) sim.readVertices(bits.cardinality)
            bits
        }
        for (k <- 0 until bucket.length) {
          val id = bucket.id(k)
          var prev = bucket.prev(k)
          var cur = bucket.cur(k)
          var hop = bucket.hop(k)
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
              if (trace != null) trace.step(id, z)
              live = !task.stopsAfter(id, hop)
            }
          }
          if (live) {
            val cb = bg.blockOf(cur)
            bucket.update(k, hop, prev, cur)
            if (cb > i && bg.blockOf(prev) == b) buckets(cb).addFrom(bucket, k) // bucket-extending
            else { driver.pools.add(math.min(bg.blockOf(prev), cb), bucket, k); sim.walkIO(1) } // skewed storage
          }
        }
        buckets(i).clear()
        if (loadLog != null) loadLog.record(i, eta, sim.wallTimeSec - t0)
      }
    }
  }

  private def shuffled(walks: WalkBuffer, rng: scala.util.Random): WalkBuffer = {
    val out = new WalkBuffer
    for (k <- rng.shuffle((0 until walks.length).toVector)) out.addFrom(walks, k)
    out
  }
}
