package repro.engine

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicReference}
import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** A fixed-size page of walks, each a packed 128-bit record (§6.1) in two
  * consecutive words of one `Array[Long]`:
  *
  *   word 0 = | walk id (40) | hop (24) |
  *   word 1 = | previous vertex (32) | current vertex (32) |
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). A record is the
  * 16 bytes per walk that the engines charge on every pool read/write
  * (`CostModel.walkBytes`). A page holds at most `capacity` records; pools
  * keep theirs in pages ([[WalkPart]]), which are cleared and refilled,
  * never grown.
  */
final class WalkBuffer(capacity: Int) {
  import WalkBuffer._

  private val words = new Array[Long](2 * capacity)
  private var n = 0
  private var lowestHop = Int.MaxValue

  def length: Int = n

  @inline def id(k: Int): Long = words(2 * k) >>> HopBits
  @inline def hop(k: Int): Int = (words(2 * k) & HopMask).toInt
  @inline def prev(k: Int): Int = (words(2 * k + 1) >> 32).toInt
  @inline def cur(k: Int): Int = words(2 * k + 1).toInt

  /** Smallest hop among the records added since the last `clear`
    * (Int.MaxValue when none).
    */
  def minHop: Int = lowestHop

  def add(id: Long, hop: Int, prev: Int, cur: Int): Unit = {
    words(2 * n) = id << HopBits | hop
    words(2 * n + 1) = prev.toLong << 32 | (cur & 0xffffffffL)
    n += 1
    if (hop < lowestHop) lowestHop = hop
  }

  def clear(): Unit = { n = 0; lowestHop = Int.MaxValue }
}

object WalkBuffer {
  private final val HopBits = 24
  private final val HopMask = (1L << HopBits) - 1

  /** Walk ids are 40 bits: at most 2^40 walks per task. */
  final val MaxWalks: Long = 1L << (64 - HopBits)

  /** Hops are 24 bits: `maxLen` must stay below 2^24. */
  final val MaxLen: Int = 1 << HopBits
}

/** One lane's part of a pool: its records in pages of `PageWalks`, each
  * full but the last. A cleared part keeps its pages for reuse, so it
  * allocates only when it holds more records than it ever held, a page at a
  * time, and never copies a record.
  */
final class WalkPart private[engine] () {
  import WalkPart._
  private var pages = new Array[WalkBuffer](1)
  private var used = 0 // pages in use

  def length: Int = if (used == 0) 0 else (used - 1) * PageWalks + pages(used - 1).length

  /** Pages in use; page `j` holds records `j * PageWalks` on. */
  def pageCount: Int = used
  def page(j: Int): WalkBuffer = pages(j)

  /** Smallest hop appended since the last `clear` (Int.MaxValue when none). */
  def minHop: Int = {
    var h = Int.MaxValue
    var j = 0
    while (j < used) { h = math.min(h, pages(j).minHop); j += 1 }
    h
  }

  def add(id: Long, hop: Int, prev: Int, cur: Int): Unit = {
    if (used == 0 || pages(used - 1).length == PageWalks) nextPage()
    pages(used - 1).add(id, hop, prev, cur)
  }

  private[engine] def clear(): Unit = used = 0

  private def nextPage(): Unit = {
    if (used == pages.length) {
      require(used < MaxPages, s"a pool part holds at most ${MaxPages.toLong * PageWalks} records")
      pages = java.util.Arrays.copyOf(pages, math.min(2 * used, MaxPages))
    }
    if (pages(used) == null) pages(used) = new WalkBuffer(PageWalks)
    else pages(used).clear()
    used += 1
  }
}

object WalkPart {
  /** Records per page: six of the chunks `Walker` claims. */
  final val PageWalks = 6 * Walker.Chunk

  private final val MaxPages = Int.MaxValue / PageWalks
}

/** One block's walk pool, kept in one [[WalkPart]] per [[Lanes]] lane: in a
  * lane job, lane `l` appends every walk it routes here to part `l`, so no two
  * lanes write one buffer. Which lane took a walk decides only its part and
  * its place in it, so the record order of a pool may differ run to run;
  * its size, `minHop` and multiset of records do not.
  */
final class WalkPool private[engine] (parts: Array[WalkPart]) {

  def nParts: Int = parts.length
  def part(l: Int): WalkPart = parts(l)

  /** Records over all parts. */
  def length: Int = {
    var n = 0
    var l = 0
    while (l < parts.length) { n = Math.addExact(n, parts(l).length); l += 1 }
    n
  }

  def isEmpty: Boolean = length == 0
  def nonEmpty: Boolean = length != 0

  /** Smallest hop over all parts (Int.MaxValue when empty). */
  def minHop: Int = {
    var h = Int.MaxValue
    var l = 0
    while (l < parts.length) { h = math.min(h, parts(l).minHop); l += 1 }
    h
  }

  private[engine] def clear(): Unit = {
    var l = 0
    while (l < parts.length) { parts(l).clear(); l += 1 }
  }
}

/** Per-block walk pools ("walk pool" + disk walk storage of §3), with their
  * association rule: a walk that leaves memory at (previous block `pb`,
  * current block `cb`) goes to pool `home(pb, cb)`, `cb` in the traditional
  * storage and `min(pb, cb)` in the skewed one (§4.3.1). The kernel routes
  * survivors by it as it steps them. Scheduling strategies read the pools'
  * sizes and each pool's `minHop` (exact, as pools are only appended to and
  * drained whole). A slot job drains one pool (`drain`), a superstep job
  * every pool at once (`drainAll`); each swaps in empty pools kept for it,
  * so the walks it drained can be read while the job fills their places.
  */
final class WalkPools(val nBlocks: Int, skewed: Boolean = false) {
  // Each lane's parts are allocated together, so parts that different lanes
  // write sit on different cache lines.
  private val byLane = Array.tabulate(Lanes.count, 2 * nBlocks + 1)((_, _) => new WalkPart)
  private def parts(j: Int) = new WalkPool(byLane.map(_(j)))
  private var pools = Array.tabulate(nBlocks)(parts)
  // The pools the last `drainAll` returned, and the pool the last `drain`
  // returned; the next call of each recycles them.
  private var spare = Array.tabulate(nBlocks)(b => parts(nBlocks + b))
  private var drained = parts(2 * nBlocks)

  def pool(b: Int): WalkPool = pools(b)

  /** The pool of a walk whose previous vertex is in block `pb` and current
    * vertex in block `cb`.
    */
  @inline def home(pb: Int, cb: Int): Int = if (skewed) math.min(pb, cb) else cb

  def isEmpty: Boolean = {
    var b = 0
    while (b < nBlocks && pools(b).isEmpty) b += 1
    b == nBlocks
  }

  def size(b: Int): Int = pools(b).length

  /** Remove and return pool `b`'s walks, all its parts, leaving it empty.
    * The returned pool is valid until the next `drain`, which clears it and
    * puts it back as an empty pool.
    */
  def drain(b: Int): WalkPool = {
    val out = pools(b)
    drained.clear()
    pools(b) = drained
    drained = out
    out
  }

  /** Remove and return every pool's walks, pool `b` at index `b`, leaving
    * every pool empty. The returned pools are valid until the next
    * `drainAll`, which clears them and puts them back as empty pools.
    */
  private[engine] def drainAll(): Array[WalkPool] = {
    val out = pools
    spare.foreach(_.clear())
    pools = spare
    spare = out
    out
  }
}

/** The walk corpus: the full trajectory of every walk of a task, the output
  * of RWNV and DeepWalk (§7.1). Pass one to `WalkEngine.run`; a collector
  * records one run.
  *
  * The corpus is walk-major, one slot of `maxLen + 1` vertices per walk:
  * walk `w`'s vertex after `h` steps is `vertices(w * (maxLen + 1) + h)`,
  * and `lengths(w)` is the number of vertices it took. The collector
  * allocates nothing until `new Walker` binds it to its task's `maxLen`.
  * During the run the lane that starts or steps a walk writes each vertex
  * into the walk's own slot (`put`) and its length once it ends (`end`); a
  * walk is stepped by one lane per job, so no two threads write one slot.
  * `Walker.finish` seals the corpus before `run` returns. Reading it before
  * the seal, or binding it to a second run, throws IllegalStateException.
  */
final class TraceCollector(val nWalks: Int) {
  require(nWalks >= 0, s"a corpus of $nWalks walks")

  private var stride = 0 // maxLen + 1, once bound
  private var vertices: Array[Int] = null
  private var lengths: Array[Int] = null
  private var complete = false

  /** Lay out a slot of `maxLen + 1` vertices per walk, once: a collector
    * bound by an earlier run, or a corpus larger than an `Int` array can
    * hold, fails before anything is allocated.
    */
  private[engine] def bind(maxLen: Int): Unit = {
    if (lengths != null) throw new IllegalStateException("a TraceCollector records one run, and this one was passed to another")
    val slots = nWalks.toLong * (maxLen + 1)
    // The JDK's soft maximum array length.
    require(slots <= Int.MaxValue - 8,
      s"a corpus of $nWalks walks of up to ${maxLen + 1} vertices needs $slots slots, more than an Int array holds")
    stride = maxLen + 1
    lengths = new Array[Int](nWalks)
    vertices = new Array[Int](slots.toInt)
  }

  /** Record that walk `id` is at `v` after `hop` steps. */
  private[repro] def put(id: Long, hop: Int, v: Int): Unit = vertices(id.toInt * stride + hop) = v

  /** Record that walk `id` ended after `length` vertices. */
  private[repro] def end(id: Long, length: Int): Unit = lengths(id.toInt) = length

  private[engine] def seal(): Unit = complete = true

  private def sealedLengths: Array[Int] = {
    if (!complete) throw new IllegalStateException("the corpus is read before the run sealed it")
    lengths
  }

  /** Number of vertices of walk `w`: its start plus one per step. */
  def length(w: Int): Int = sealedLengths(w)

  /** Vertex of walk `w` after `h` steps. */
  def vertex(w: Int, h: Int): Int = {
    if (h < 0 || h >= sealedLengths(w)) throw new IndexOutOfBoundsException(s"hop $h of walk $w")
    vertices(w * stride + h)
  }

  /** A copy of walk `w`'s trajectory. */
  def path(w: Int): Array[Int] = {
    val n = sealedLengths(w)
    java.util.Arrays.copyOfRange(vertices, w * stride, w * stride + n)
  }

  /** The corpus as one boxed buffer per walk, built on first read; not to be
    * modified. Kept for readers of the boxed form; prefer `path`/`vertex`.
    */
  lazy val paths: Array[ArrayBuffer[Int]] = {
    val n = sealedLengths
    Array.tabulate(nWalks) { w =>
      val b = new ArrayBuffer[Int](n(w))
      var h = 0
      while (h < n(w)) { b += vertices(w * stride + h); h += 1 }
      b
    }
  }
}

/** The one walk-step kernel: every engine advances walks through it, so
  * trajectories are engine-independent (deterministic counter RNG) and
  * execution cost, visits and traces are recorded uniformly. Walks are
  * records of [[WalkBuffer]]s; the task must fit its id and hop fields, and
  * a corpus, if given, must hold every walk. Engines return `finish()`.
  *
  * Walks advance in lane jobs, each spread over every [[Lanes]] lane:
  * `advanceAll` sweeps the walks of one time slot, `advanceSuperstep` the
  * walks of every slot of an Iteration superstep, and `startAll` starts
  * walks and sweeps them in their source blocks (Init). In slot `b` each
  * walk is in a bucket (see `Fixed`, `Pairs`, `Extending`), and the lanes
  * tally per (slot, bucket) what the engine charges for it afterwards:
  * arrivals, steps, neighbour work, survivors and, when asked, the vertices
  * of the bucket's block that a walk activated on arrival or stepped from;
  * per slot, the walks read into it. The lane that steps a walk also routes
  * it: a walk that leaves memory goes to the lane's own part of its next
  * pool, `WalkPools.home` of the blocks it stepped between, unless a
  * superstep job still has that pool's slot ahead, where the lane runs it
  * on at once. A record that never stepped (hop 0) is started by the lane
  * that first steps it, which writes its source to the visits and corpus.
  * Each walk is a pure function of (task seed, walk id, hop), so which lane
  * takes it cannot change it, nor the (slot, bucket) cells it passes
  * through. Lanes count and mark into their own state, which each allocates
  * itself on first use; the caller merges it in lane order: tallies after
  * each job, visit counts in `finish`. Sums, a set union and a multiset of
  * pooled records do not depend on the lane or order a walk had, and the
  * corpus is written in place, each vertex into its walk's own slot by the
  * one lane that holds the walk in a job: every count, corpus and visit
  * vector is the one a single thread gives. Lane state is allocated once
  * per run: per lane `nB² × Fields` counts and `nB × ⌈nV/64⌉` mark words,
  * which must each fit an array.
  */
final class Walker(val bg: BlockedGraph, val task: WalkTask, val sim: DiskSim,
                   visits: Array[Long], trace: TraceCollector) {
  import Walker._
  require(task.totalWalks <= WalkBuffer.MaxWalks,
    s"${task.totalWalks} walks exceed the ${WalkBuffer.MaxWalks} a walk record can number")
  require(task.maxLen < WalkBuffer.MaxLen,
    s"maxLen ${task.maxLen} does not fit a walk record's hop field (< ${WalkBuffer.MaxLen})")
  require(trace == null || trace.nWalks >= task.totalWalks,
    s"a corpus of ${trace.nWalks} walks cannot hold the task's ${task.totalWalks}")
  require(bg.nBlocks.toLong * bg.nBlocks * Fields <= MaxArray && bg.nBlocks.toLong * words(bg.g.nV) <= MaxArray,
    s"the per-slot lane tallies and marks of nB = ${bg.nBlocks} blocks over nV = ${bg.g.nV} vertices exceed an array")
  if (trace != null) trace.bind(task.maxLen)

  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder
  private val nB = bg.nBlocks
  // Slot b's counts start at rowLen * b, its marks at markLen * b.
  private val rowLen = Fields * nB
  private val markLen = words(g.nV)

  /** What one lane recorded in the open job. Each array is allocated by
    * the lane's own thread when it first needs it, so lanes write apart.
    */
  private final class Lane(var visits: Array[Long]) {
    var counts: Array[Long] = null // per (slot, bucket), see `Fields`
    var marks: Array[Long] = null // per slot, a bit per vertex
  }
  private val lanes = Array.tabulate(Lanes.count)(l => new Lane(if (l == 0) visits else null))
  // The last job's counts, summed over lanes, and the slots it entered.
  private val total = new Array[Long](rowLen * nB)
  private val entered = new Array[Boolean](nB)

  // The open job. The caller writes it before `claims` opens its chunks; a
  // lane reads it only after claiming one, and the caller moves on only
  // once every chunk is `completed`.
  private var starting = false
  private var forward = false
  private var sweepParts = 1
  private var sweepRule = Fixed
  private var sweepMarks = false
  private var sweepTo: WalkPools = _
  // Input j holds the walks of slot inSlots(j); part p's chunks of inputs
  // before j number firstChunk((nB + 1) * p + j).
  private var nIn = 0
  private val inSlots = new Array[Int](nB)
  private val inPools = new Array[WalkPool](nB)
  private val firstChunk = new Array[Int]((nB + 1) * Lanes.count)
  private var startSrcs: Array[Int] = _
  private var startIds: Array[Long] = _
  private var startFrom = 0L
  private var startTo = 0L
  // Unclaimed chunks of part p at claims(Spacing * p), a cache line apart.
  private val claims = new AtomicIntegerArray(Spacing * Lanes.count)
  private val completed = new AtomicInteger
  private val failure = new AtomicReference[Throwable]

  /** Step every record of `walks` in the time slot whose current block is
    * `b`, while its current block is `b` or its bucket's block (bucket rule
    * `rule`), and route each walk that leaves memory to its pool in `to`; a
    * walk that ended (stuck on a dangling vertex, or stopped by the task) is
    * dropped. `walks` is read, not changed. With `marks`, `touched` counts
    * the vertices each bucket activated or stepped from. A job of at least
    * `ParallelMin` records runs on every lane unless another job holds
    * them, each lane taking chunks of its own part of the input first; a
    * smaller one runs the same chunk loop on the caller alone. An exception
    * thrown in a lane is rethrown here, after the job.
    */
  def advanceAll(walks: WalkPool, b: Int, rule: Int, marks: Boolean, to: WalkPools): Unit = {
    inSlots(0) = b
    inPools(0) = walks
    sweepInputs(1, rule, marks, forward = false, to)
  }

  /** Run one superstep of the Iteration order (Alg. 1) as one job: drain
    * every pool of `pools` and step each walk in the slot of its pool, as
    * `advanceAll` does, then on in each slot its pool rule routes it to
    * above the one it left, so it passes through the superstep's slots in
    * ascending order. A survivor whose pool is at or below the slot it left
    * goes to that pool of `pools`, for the next superstep.
    */
  def advanceSuperstep(pools: WalkPools, rule: Int, marks: Boolean): Unit = {
    val drained = pools.drainAll()
    var n = 0
    var b = 0
    while (b < nB) {
      if (drained(b).nonEmpty) { inSlots(n) = b; inPools(n) = drained(b); n += 1 }
      b += 1
    }
    sweepInputs(n, rule, marks, forward = true, pools)
  }

  /** Open a job over inputs `0 until n` and run it. */
  private def sweepInputs(n: Int, rule: Int, marks: Boolean, forward: Boolean, to: WalkPools): Unit = {
    nIn = n
    open(start = false, Lanes.count, rule, marks, forward, to)
    var chunks = 0
    var records = 0
    var p = 0
    while (p < Lanes.count) {
      val at = (nB + 1) * p
      var j = 0
      while (j < n) {
        val part = inPools(j).part(p)
        records = Math.addExact(records, part.length)
        firstChunk(at + j + 1) = Math.addExact(firstChunk(at + j), (part.length + Chunk - 1) / Chunk)
        j += 1
      }
      claims.set(Spacing * p, firstChunk(at + n))
      chunks = Math.addExact(chunks, firstChunk(at + n))
      p += 1
    }
    sweep(chunks, records, marks)
  }

  /** Start walks `from until to` and sweep them as `advanceAll` does under
    * rule `Fixed`, each in the slot of its source block, on the lanes, each
    * lane starting the walks of the chunks it claims. Walk `id` starts at
    * `srcs(o)` for the `o` with `firstIds(o) <= id < firstIds(o + 1)`;
    * `firstIds` ascends strictly.
    */
  def startAll(srcs: Array[Int], firstIds: Array[Long], from: Long, to: Long, into: WalkPools): Unit = {
    val chunks = (to - from + Chunk - 1) / Chunk
    require(chunks <= Int.MaxValue, s"${to - from} walks started in one job")
    startSrcs = srcs
    startIds = firstIds
    startFrom = from
    startTo = to
    open(start = true, 1, Fixed, marks = false, forward = false, into)
    claims.set(0, chunks.toInt)
    sweep(chunks.toInt, to - from, marks = false)
  }

  /** Set the open job's kind and rule; the caller then opens its chunks in
    * `claims`.
    */
  private def open(start: Boolean, parts: Int, rule: Int, marks: Boolean, forward: Boolean, to: WalkPools): Unit = {
    starting = start
    sweepParts = parts
    sweepRule = rule
    sweepMarks = marks
    this.forward = forward
    sweepTo = to
    completed.set(0)
  }

  /** Run the open job's `chunks` chunks, on every lane if its `work` is
    * worth sharing and no other job holds them, merge what the lanes
    * recorded and rethrow an exception a lane caught. Counts the job and
    * the time the caller waits for the lanes in `sim`.
    */
  private def sweep(chunks: Int, work: Long, marks: Boolean): Unit = {
    val shared = work >= ParallelMin && Lanes.acquire(this)
    runChunks(0)
    val waited = System.nanoTime()
    while (completed.get < chunks) Thread.onSpinWait()
    sim.laneWaitNanos += System.nanoTime() - waited
    sim.laneJobs += 1
    if (shared) Lanes.release()
    merge(marks)
    val e = failure.getAndSet(null)
    if (e != null) throw e
  }

  /** Walks read into slot `b` in the last job: those of its pool and those
    * the job moved on into it.
    */
  def reads(b: Int): Int = total(rowLen * b + Fields * b + Reads).toInt

  /** Walks that entered bucket `i` of slot `b` in the last job: those that
    * started in it and those bucket-extending moved into it.
    */
  def arrivals(b: Int, i: Int): Int = total(rowLen * b + Fields * i + Arrivals).toInt

  /** Walks of the last job that left memory from bucket `i` of slot `b`. */
  def survivors(b: Int, i: Int): Int = total(rowLen * b + Fields * i + Survivors).toInt

  /** Vertices of block `i` that a walk of bucket `i` of slot `b` activated
    * (its previous or current vertex on arrival) or stepped from in the
    * last job, if it marked them.
    */
  def touched(b: Int, i: Int): Int = total(rowLen * b + Fields * i + Touched).toInt

  /** Charge the steps and neighbour work of bucket `i` of slot `b` of the
    * last job.
    */
  def chargeSteps(b: Int, i: Int): Unit =
    sim.chargeSteps(total(rowLen * b + Fields * i + Steps), total(rowLen * b + Fields * i + Work))

  /** Run chunks of the open job as lane `l` until none is left: those of
    * part `l` first, then the other parts'.
    */
  private[engine] def runChunks(l: Int): Unit = {
    val parts = sweepParts
    var done = 0
    var j = 0
    while (j < parts) {
      val p = (l + j) % parts
      var c = claim(p)
      while (c >= 0) {
        try runChunk(l, p, c)
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        done += 1
        c = claim(p)
      }
      j += 1
    }
    if (done > 0) completed.addAndGet(done)
  }

  /** Claim an unclaimed chunk of part `p`, or -1 if none is left. */
  private def claim(p: Int): Int = {
    val at = Spacing * p
    var n = claims.get(at)
    while (n > 0 && !claims.compareAndSet(at, n, n - 1)) n = claims.get(at)
    n - 1
  }

  private def runChunk(l: Int, p: Int, c: Int): Unit = {
    val lane = lanes(l)
    if (lane.counts == null) lane.counts = new Array[Long](rowLen * nB)
    if (sweepMarks && lane.marks == null) lane.marks = new Array[Long](markLen * nB)
    if (visits != null && lane.visits == null) lane.visits = new Array[Long](g.nV)
    if (starting) startChunk(lane, l, c)
    else {
      // The last input whose chunks of part p start at or before c.
      val at = (nB + 1) * p
      var j = 0
      var hi = nIn - 1
      while (j < hi) {
        val mid = (j + hi + 1) >>> 1
        if (firstChunk(at + mid) <= c) j = mid else hi = mid - 1
      }
      val k0 = c - firstChunk(at + j)
      val walks = inPools(j).part(p).page(k0 / ChunksPerPage)
      val b = inSlots(j)
      var k = k0 % ChunksPerPage * Chunk
      val end = math.min(walks.length, k + Chunk)
      while (k < end) {
        advance(lane, l, b, walks.id(k), walks.prev(k), walks.cur(k), walks.hop(k))
        k += 1
      }
    }
  }

  /** Start and advance the walks of chunk `c` of the open `startAll`. */
  private def startChunk(lane: Lane, l: Int, c: Int): Unit = {
    val ids = startIds
    var id = startFrom + c.toLong * Chunk
    val end = math.min(startTo, id + Chunk)
    var o = java.util.Arrays.binarySearch(ids, id)
    if (o < 0) o = -o - 2
    while (id < end) {
      while (ids(o + 1) <= id) o += 1
      val src = startSrcs(o)
      advance(lane, l, bg.blockOf(src), id, -1, src, 0)
      id += 1
    }
  }

  /** Step walk `id` from (`prev`, `cur`, `hop`) as lane `l` in slot `b0` of
    * the open job, and on in later slots if the job moves it on; tally it,
    * and route it to part `l` of its pool if it survives.
    */
  private def advance(lane: Lane, l: Int, b0: Int, id: Long, prev0: Int, cur0: Int, hop0: Int): Unit = {
    val rule = sweepRule
    val counts = lane.counts
    val marks = if (sweepMarks) lane.marks else null
    val seen = lane.visits
    var prev = prev0
    var cur = cur0
    var hop = hop0
    if (hop == 0) {
      if (seen != null) seen(cur) += 1
      if (trace != null) trace.put(id, 0, cur)
    }
    var b = b0
    var cb = bg.blockOf(cur)
    var pb = if (rule == Fixed) b else bg.blockOf(prev)
    var live = true
    var slots = true
    while (slots) {
      val row = rowLen * b
      val markRow = markLen * b
      counts(row + Fields * b + Reads) += 1
      var i = if (rule == Fixed || pb != b) pb else cb
      var moving = true
      while (moving) {
        counts(row + Fields * i + Arrivals) += 1
        if (marks != null) {
          val lo = bg.blockStart(i)
          val hi = bg.blockStart(i + 1)
          if (prev >= lo && prev < hi) mark(marks, markRow, prev)
          if (cur >= lo && cur < hi) mark(marks, markRow, cur)
        }
        var steps = 0L
        var work = 0L
        while (live && (cb == b || cb == i)) {
          if (marks != null && cb == i) mark(marks, markRow, cur)
          steps += 1
          if (secondOrder && prev >= 0) work += g.degree(cur)
          val z = model.sampleNext(g, prev, cur, task.moveDraw(id, hop))
          if (z < 0) live = false
          else {
            prev = cur
            cur = z
            pb = cb
            cb = bg.blockOf(z)
            hop += 1
            if (seen != null) seen(z) += 1
            if (trace != null) trace.put(id, hop, z)
            live = !task.stopsAfter(id, hop)
          }
          if (!live && trace != null) trace.end(id, hop + 1)
        }
        counts(row + Fields * i + Steps) += steps
        counts(row + Fields * i + Work) += work
        // Bucket-extending (Alg. 2 l.14): a walk that stepped from b into a
        // block j beyond i goes on in bucket j.
        if (live && rule == Extending && pb == b && cb > i) i = cb
        else moving = false
      }
      slots = false
      if (live) {
        // Every survivor stepped in this slot, so `pb` is its previous block.
        counts(row + Fields * i + Survivors) += 1
        val h = sweepTo.home(pb, cb)
        if (forward && h > b) {
          b = h
          if (rule == Fixed) pb = b
          slots = true
        } else sweepTo.pool(h).part(l).add(id, hop, prev, cur)
      }
    }
  }

  /** Sum the lanes' counts of the slots they read walks into, in lane
    * order, and count and clear the vertices they marked in each bucket
    * with arrivals.
    */
  private def merge(marked: Boolean): Unit = {
    var b = 0
    while (b < nB) {
      if (entered(b)) java.util.Arrays.fill(total, rowLen * b, rowLen * (b + 1), 0L)
      entered(b) = false
      var l = 0
      while (l < lanes.length) {
        val counts = lanes(l).counts
        if (counts != null && counts(rowLen * b + Fields * b + Reads) > 0) {
          entered(b) = true
          var j = rowLen * b
          while (j < rowLen * (b + 1)) { total(j) += counts(j); counts(j) = 0; j += 1 }
        }
        l += 1
      }
      if (marked && entered(b)) {
        var i = 0
        while (i < nB) {
          if (arrivals(b, i) > 0)
            total(rowLen * b + Fields * i + Touched) = takeMarks(markLen * b, bg.blockStart(i), bg.blockStart(i + 1))
          i += 1
        }
      }
      b += 1
    }
  }

  /** Count the vertices in `lo until hi` that any lane marked in the slot
    * whose marks start at `row`, and unmark them.
    */
  private def takeMarks(row: Int, lo: Int, hi: Int): Int = {
    var n = 0
    var w = lo >>> 6
    while (w << 6 < hi) {
      var bits = -1L
      if (w == lo >>> 6) bits &= -1L << lo
      if (w == (hi - 1) >>> 6) bits &= -1L >>> (63 - ((hi - 1) & 63))
      var x = 0L
      var l = 0
      while (l < lanes.length) {
        val m = lanes(l).marks
        if (m != null) { x |= m(row + w) & bits; m(row + w) &= ~bits }
        l += 1
      }
      n += java.lang.Long.bitCount(x)
      w += 1
    }
    n
  }

  /** End the run: add the lanes' visits, seal the corpus and return the
    * simulated metrics.
    */
  def finish(): DiskSim.Metrics = {
    var l = 1
    while (l < lanes.length) {
      val seen = lanes(l).visits
      if (seen != null) {
        var v = 0
        while (v < seen.length) { visits(v) += seen(v); v += 1 }
        lanes(l).visits = null
      }
      l += 1
    }
    if (trace != null) trace.seal()
    Lanes.rest()
    sim.snapshot
  }
}

object Walker {
  /** Bucket rule: every walk is in bucket `b` and steps while its current
    * block is `b` (Init, SOGW/SGSC, first-order).
    */
  final val Fixed = 0

  /** Bucket rule: a walk's bucket is the other block of its (previous,
    * current) pair (Eq. 4), and it steps while its current block is `b` or
    * that block (PB).
    */
  final val Pairs = 1

  /** `Pairs` with bucket-extending (Alg. 2 l.14): a walk that steps from `b`
    * into a block beyond its bucket's goes on in that block's bucket (the
    * bi-block engine).
    */
  final val Extending = 2

  // The counts of bucket i of slot b are counts(Fields * (nB * b + i) + field);
  // a slot's reads are kept in its own bucket's cell.
  private final val Arrivals = 0
  private final val Steps = 1
  private final val Work = 2
  private final val Survivors = 3
  private final val Reads = 4
  private final val Touched = 5 // summed only, set by `merge`
  private final val Fields = 6

  /** The JDK's soft maximum array length. */
  private[engine] final val MaxArray = Int.MaxValue - 8

  /** Records a lane claims at a time. */
  private[engine] final val Chunk = 12

  private final val ChunksPerPage = WalkPart.PageWalks / Chunk

  /** The smallest job worth waking the other lanes for. */
  private final val ParallelMin = 48

  /** Ints per cache line: the stride of the per-part claim counters. */
  private final val Spacing = 16

  /** Words of a bitmap of `n` bits. */
  private def words(n: Int): Int = (n + 63) >>> 6

  @inline private def mark(marks: Array[Long], row: Int, v: Int): Unit = marks(row + (v >>> 6)) |= 1L << v
}

/** Walk initialization (paper Appendix B): one lane job starts each walk
  * at its source and advances it until it leaves its source block or
  * terminates. Each source block with walks is charged its load, time slot
  * and steps in ascending block order, as one sequential pass over the
  * blocks would charge them. Afterwards no live walk has its previous and
  * current vertex in the same block — the invariant both the skewed
  * storage and the asynchronous update rely on.
  */
object Init {

  /** Walks started per job, which keeps a job's chunk count an `Int`. */
  private final val Batch = 1L << 30

  /** Runs initialization: the lanes start the walks in one job and route
    * every survivor (its current vertex is outside its source block) to its
    * pool in `pools`; each source block is then charged its load, its time
    * slot and its walks' steps, in ascending order.
    */
  def run(walker: Walker, pools: WalkPools): Unit = {
    val bg = walker.bg
    val sim = walker.sim
    val starts = walker.task.starts
    // Walk IDs must be identical across engines: assign in (block, start)
    // order, by a stable counting sort of the starts with walks.
    val first = new Array[Int](bg.nBlocks + 1)
    var j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) first(bg.blockOf(starts(j)._1) + 1) += 1
      j += 1
    }
    var c = 0
    while (c < bg.nBlocks) { first(c + 1) += first(c); c += 1 }
    // In that order, start o is at srcs(o) and numbers walks
    // firstIds(o) until firstIds(o + 1).
    val srcs = new Array[Int](first(bg.nBlocks))
    val counts = new Array[Int](first(bg.nBlocks))
    val next = java.util.Arrays.copyOf(first, bg.nBlocks)
    j = 0
    while (j < starts.length) {
      if (starts(j)._2 > 0) {
        val s = bg.blockOf(starts(j)._1)
        srcs(next(s)) = starts(j)._1
        counts(next(s)) = starts(j)._2
        next(s) += 1
      }
      j += 1
    }
    val firstIds = new Array[Long](srcs.length + 1)
    j = 0
    while (j < srcs.length) { firstIds(j + 1) = firstIds(j) + counts(j); j += 1 }

    // Each source block with walks is charged its load and time slot, and,
    // after each job, the steps of its walks, whose tallies are in its slot
    // and bucket.
    var b = 0
    while (b < bg.nBlocks) {
      if (first(b) < first(b + 1)) {
        sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
        sim.timeSlots += 1
      }
      b += 1
    }
    val n = firstIds(srcs.length)
    var from = 0L
    while (from < n) {
      val to = math.min(n, from + Batch)
      walker.startAll(srcs, firstIds, from, to, pools)
      b = 0
      while (b < bg.nBlocks) { walker.chargeSteps(b, b); b += 1 }
      from = to
    }
  }
}
