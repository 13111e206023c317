package repro.engine

import java.util.concurrent.atomic.{AtomicInteger, AtomicIntegerArray, AtomicReference}
import scala.collection.mutable.ArrayBuffer
import repro.disk.DiskSim
import repro.graph.BlockedGraph
import repro.walk.WalkTask

/** A growable buffer of walks, each a packed 128-bit record (§6.1) in two
  * consecutive words of one `Array[Long]`:
  *
  *   word 0 = | walk id (40) | hop (24) |
  *   word 1 = | previous vertex (32) | current vertex (32) |
  *
  * `hop` counts completed steps; `prev == -1` until the first step (the
  * first transition of every model is first-order, §2.1). A record is the
  * 16 bytes per walk that the engines charge on every pool read/write
  * (`CostModel.walkBytes`). A buffer starts with room for `initialWalks`
  * records and doubles when full; pools keep theirs as fixed-size pages
  * ([[WalkPart]]). Buffers are cleared and refilled, never shrunk. A buffer
  * holds at most `MaxRecords` records.
  */
final class WalkBuffer(initialWalks: Int = WalkBuffer.InitialWalks) {
  import WalkBuffer._

  private var words = new Array[Long](2 * initialWalks)
  private var n = 0
  private var lowestHop = Int.MaxValue

  def length: Int = n
  def isEmpty: Boolean = n == 0
  def nonEmpty: Boolean = n != 0

  @inline def id(k: Int): Long = words(2 * k) >>> HopBits
  @inline def hop(k: Int): Int = (words(2 * k) & HopMask).toInt
  @inline def prev(k: Int): Int = (words(2 * k + 1) >> 32).toInt
  @inline def cur(k: Int): Int = words(2 * k + 1).toInt

  /** Smallest hop among the records appended since the last `clear`
    * (Int.MaxValue when none). `update` does not lower it, so it is exact
    * for a buffer that is only appended to and cleared whole — a pool page.
    */
  def minHop: Int = lowestHop

  def add(id: Long, hop: Int, prev: Int, cur: Int): Unit =
    append(pack0(id, hop), pack1(prev, cur))

  /** Append a copy of record `k` of `from`. */
  def addFrom(from: WalkBuffer, k: Int): Unit =
    append(from.words(2 * k), from.words(2 * k + 1))

  /** Overwrite the hop and vertices of record `k`, keeping its id. */
  def update(k: Int, hop: Int, prev: Int, cur: Int): Unit = {
    words(2 * k) = pack0(id(k), hop)
    words(2 * k + 1) = pack1(prev, cur)
  }

  def clear(): Unit = { n = 0; lowestHop = Int.MaxValue }

  private def append(w0: Long, w1: Long): Unit = {
    if (2 * n == words.length) words = java.util.Arrays.copyOf(words, grown(words.length))
    words(2 * n) = w0
    words(2 * n + 1) = w1
    n += 1
    val h = (w0 & HopMask).toInt
    if (h < lowestHop) lowestHop = h
  }
}

object WalkBuffer {
  private final val HopBits = 24
  private final val HopMask = (1L << HopBits) - 1
  private[engine] final val InitialWalks = 16

  /** Walk ids are 40 bits: at most 2^40 walks per task. */
  final val MaxWalks: Long = 1L << (64 - HopBits)

  /** Hops are 24 bits: `maxLen` must stay below 2^24. */
  final val MaxLen: Int = 1 << HopBits

  /** Records a buffer can hold: their words fill an array of 2^30 longs,
    * and doubling it once more overflows `Int`.
    */
  final val MaxRecords: Int = 1 << 29

  /** The word count a full buffer of `words` words grows to. */
  private[engine] def grown(words: Int): Int = {
    require(words < 2 * MaxRecords, s"a walk buffer holds at most $MaxRecords records")
    2 * words
  }

  @inline private def pack0(id: Long, hop: Int): Long = id << HopBits | hop
  @inline private def pack1(prev: Int, cur: Int): Long = prev.toLong << 32 | (cur & 0xffffffffL)
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
  * sweep, lane `l` appends every walk it routes here to part `l`, so no two
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
  * drained whole).
  */
final class WalkPools(val nBlocks: Int, skewed: Boolean = false) {
  // Each lane's parts are allocated together, so parts that different lanes
  // write sit on different cache lines.
  private val byLane = Array.tabulate(Lanes.count, nBlocks + 1)((_, _) => new WalkPart)
  private val pools = Array.tabulate(nBlocks)(b => new WalkPool(byLane.map(_(b))))
  // The pool the last `drain` returned; the next `drain` recycles it.
  private var drained = new WalkPool(byLane.map(_(nBlocks)))

  def pool(b: Int): WalkPool = pools(b)

  /** The pool of a walk whose previous vertex is in block `pb` and current
    * vertex in block `cb`.
    */
  @inline def home(pb: Int, cb: Int): Int = if (skewed) math.min(pb, cb) else cb

  /** Append a copy of record `k` of `from` to pool `b`. */
  def add(b: Int, from: WalkBuffer, k: Int): Unit =
    pools(b).part(0).add(from.id(k), from.hop(k), from.prev(k), from.cur(k))

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
}

/** An append-only log of trace words, each `TraceCollector.word(id,
  * vertex)`, in arrays of `TraceCollector.ChunkSize` words. Its words from
  * `from` on (the rest of `filled`'s first array, then `filled`, then `words`
  * up to `pos`) are not in the corpus yet; `TraceCollector.take` hands them
  * over as segments of these arrays, without a copy, and a log never
  * rewrites a word.
  */
private[engine] final class TraceLog {
  private[engine] var words: Array[Long] = null
  private[engine] var pos = 0
  private[engine] var from = 0
  private[engine] var filled: ArrayBuffer[Array[Long]] = null

  def add(w: Long): Unit = {
    if (words == null || pos == words.length) next()
    words(pos) = w
    pos += 1
  }

  private def next(): Unit = {
    if (words != null) {
      if (filled == null) filled = new ArrayBuffer[Array[Long]]
      filled += words
    }
    words = new Array[Long](TraceCollector.ChunkSize)
    pos = 0
  }
}

/** The walk corpus: the full trajectory of every walk of a task, the output
  * of RWNV and DeepWalk (§7.1). Pass one to `WalkEngine.run`.
  *
  * Walk ids are split into `ranges` ranges of 2^k ids, at most `MaxRanges`,
  * and each range is logged and sorted on its own. During the run
  * `start`/`step` append one word `id << 32 | vertex` to the range's own
  * [[TraceLog]]; after each sweep `Walker` hands over the words each lane
  * logged in each range (`take`), which the collector keeps as segments of
  * the lanes' arrays. `seal` (run by `Walker.finish` before `run` returns,
  * one range per lane chunk) sorts each range, segment after segment, by
  * walk id with one stable counting sort into its slice of a walk-major
  * corpus: walk `w` is `vertices(offsets(w) until offsets(w + 1))`. A walk's
  * vertices are logged in time order, so the sort keeps them in hop order.
  * Reading the corpus before `seal`, or appending after it, throws
  * IllegalStateException.
  */
final class TraceCollector(val nWalks: Int) {
  import TraceCollector._
  require(nWalks >= 0, s"a corpus of $nWalks walks")

  // Range r holds walks r << shift until min(nWalks, (r + 1) << shift).
  private val shift = {
    var s = 0
    while ((nWalks - 1L) >> s >= MaxRanges) s += 1
    s
  }

  /** Walk-id ranges, at least one. */
  private[engine] val ranges: Int = if (nWalks == 0) 1 else ((nWalks - 1) >> shift) + 1

  /** The range of walk `id`; ids outside the corpus fall in the last, whose
    * sort rejects them.
    */
  @inline private[engine] def rangeOf(id: Long): Int = math.min(id >>> shift, ranges - 1L).toInt

  /** One range's log: segment s is words(s)(from(s) until to(s)). */
  private final class Segments {
    var words = new Array[Array[Long]](4)
    var from = new Array[Int](4)
    var to = new Array[Int](4)
    var n = 0
    var logged = 0L
    var own: TraceLog = null // `start`/`step`'s words in this range

    def add(ws: Array[Long], f: Int, t: Int): Unit = {
      if (n == words.length) {
        words = java.util.Arrays.copyOf(words, 2 * n)
        from = java.util.Arrays.copyOf(from, 2 * n)
        to = java.util.Arrays.copyOf(to, 2 * n)
      }
      words(n) = ws
      from(n) = f
      to(n) = t
      n += 1
      logged += t - f
    }
  }

  private var segments = Array.fill(ranges)(new Segments)
  private var logged = 0L // words in segments, over all ranges
  private var sealing = false

  // The corpus, published by `endSeal`; filled by `sealRange`.
  private var offsets: Array[Int] = null
  private var vertices: Array[Int] = null
  private var sealOffsets: Array[Int] = null
  private var sealVertices: Array[Int] = null
  private var base: Array[Int] = null // range r's first index in `vertices`

  def start(id: Long, src: Int): Unit = append(id, src)
  def step(id: Long, v: Int): Unit = append(id, v)

  private def append(id: Long, v: Int): Unit = {
    if (sealing) throw new IllegalStateException("the corpus is sealed: a TraceCollector records one run")
    val seg = segments(rangeOf(id))
    if (seg.own == null) seg.own = new TraceLog
    seg.own.add(word(id, v))
  }

  /** Append the words `log` holds for range `r` and has not handed over yet
    * as segments of range `r`, after those `start`/`step` logged there. The
    * caller must not rewrite them.
    */
  private[engine] def take(r: Int, log: TraceLog): Unit = {
    if (sealing) throw new IllegalStateException("the corpus is sealed: a TraceCollector records one run")
    val seg = segments(r)
    if (seg.own != null) takeFrom(seg, seg.own)
    takeFrom(seg, log)
  }

  private def takeFrom(seg: Segments, log: TraceLog): Unit = {
    var from = log.from
    if (log.filled != null) {
      var f = 0
      while (f < log.filled.length) { addSegment(seg, log.filled(f), from, log.filled(f).length); from = 0; f += 1 }
      log.filled.clear()
    }
    if (log.words != null) addSegment(seg, log.words, from, log.pos)
    log.from = log.pos
  }

  private def addSegment(seg: Segments, words: Array[Long], from: Int, to: Int): Unit =
    if (to > from) {
      if (logged + (to - from) > MaxVertices)
        throw new IllegalStateException(s"a corpus holds at most $MaxVertices vertices")
      seg.add(words, from, to)
      logged += to - from
    }

  /** Sort the log into the walk-major corpus and drop it. Idempotent. */
  private[engine] def seal(): Unit = {
    val n = beginSeal()
    var r = 0
    while (r < n) { sealRange(r); r += 1 }
    if (n > 0) endSeal()
  }

  /** Close the log and lay out the corpus: returns the ranges that
    * `sealRange` must then sort, each once, in any order and on any thread,
    * before `endSeal`; 0 if the corpus is sealed.
    */
  private[engine] def beginSeal(): Int = if (offsets != null) 0 else {
    var r = 0
    while (r < ranges) {
      val seg = segments(r)
      if (seg.own != null) takeFrom(seg, seg.own)
      r += 1
    }
    sealing = true
    base = new Array[Int](ranges + 1)
    r = 0
    while (r < ranges) { base(r + 1) = base(r) + segments(r).logged.toInt; r += 1 }
    sealOffsets = new Array[Int](nWalks + 1)
    sealVertices = new Array[Int](logged.toInt)
    ranges
  }

  /** Sort range `r` into its slice of the corpus: `offsets(lo until hi)` and
    * `vertices(base(r) until base(r + 1))`, which no other range writes.
    */
  private[engine] def sealRange(r: Int): Unit = {
    val lo = math.min(nWalks, r << shift)
    val hi = math.min(nWalks.toLong, (r + 1L) << shift).toInt
    val seg = segments(r)
    val off = sealOffsets
    val vs = sealVertices
    var s = 0
    while (s < seg.n) {
      val words = seg.words(s)
      var k = seg.from(s)
      while (k < seg.to(s)) {
        val id = (words(k) >>> 32).toInt
        if (id < lo || id >= hi) throw new IllegalStateException(s"walk $id logged in a corpus of $nWalks walks")
        off(id) += 1
        k += 1
      }
      s += 1
    }
    // Walk w's count becomes its start, then, as the scatter's cursor, its end.
    var at = base(r)
    var w = lo
    while (w < hi) { val c = off(w); off(w) = at; at += c; w += 1 }
    s = 0
    while (s < seg.n) {
      val words = seg.words(s)
      var k = seg.from(s)
      while (k < seg.to(s)) {
        val id = (words(k) >>> 32).toInt
        vs(off(id)) = words(k).toInt
        off(id) += 1
        k += 1
      }
      s += 1
    }
    // Walk w ends where walk w + 1 starts.
    w = hi - 1
    while (w > lo) { off(w) = off(w - 1); w -= 1 }
    if (hi > lo) off(lo) = base(r)
  }

  /** Publish the corpus once every range is sorted. */
  private[engine] def endSeal(): Unit = {
    sealOffsets(nWalks) = logged.toInt
    segments = null
    vertices = sealVertices
    offsets = sealOffsets
    sealVertices = null
    sealOffsets = null
  }

  private def corpus: Array[Int] = {
    if (offsets == null) throw new IllegalStateException("the corpus is read before the run sealed it")
    offsets
  }

  /** Number of vertices of walk `w`: its start plus one per step. */
  def length(w: Int): Int = { val o = corpus; o(w + 1) - o(w) }

  /** Vertex of walk `w` after `h` steps. */
  def vertex(w: Int, h: Int): Int = {
    val o = corpus
    if (h < 0 || h >= o(w + 1) - o(w)) throw new IndexOutOfBoundsException(s"hop $h of walk $w")
    vertices(o(w) + h)
  }

  /** A copy of walk `w`'s trajectory. */
  def path(w: Int): Array[Int] = { val o = corpus; java.util.Arrays.copyOfRange(vertices, o(w), o(w + 1)) }

  /** The corpus as one boxed buffer per walk, built on first read; not to be
    * modified. Kept for readers of the boxed form; prefer `path`/`vertex`.
    */
  lazy val paths: Array[ArrayBuffer[Int]] = Array.tabulate(nWalks) { w =>
    val o = corpus
    val b = new ArrayBuffer[Int](o(w + 1) - o(w))
    var i = o(w)
    while (i < o(w + 1)) { b += vertices(i); i += 1 }
    b
  }
}

object TraceCollector {
  /** Words per array of a trace log. */
  private[engine] final val ChunkSize = 1 << 9

  /** Walk-id ranges a corpus is logged and sorted in, at most. */
  private final val MaxRanges = 16

  /** The log word of walk `id` at vertex `v`. */
  @inline private[engine] def word(id: Long, v: Int): Long = id << 32 | (v & 0xffffffffL)

  /** Vertices a corpus can hold: at most an `Array[Int]`'s length. */
  private final val MaxVertices: Int = Int.MaxValue / ChunkSize * ChunkSize
}

/** The one walk-step kernel: every engine starts and advances walks through
  * it, so trajectories are engine-independent (deterministic counter RNG)
  * and execution cost, visits and traces are recorded uniformly. Walks are
  * records of [[WalkBuffer]]s; the task must fit its id and hop fields, and
  * a corpus, if given, must hold every walk. Engines return `finish()`.
  *
  * `advanceAll` sweeps the walks of one time slot on every [[Lanes]] lane,
  * each walk in a bucket (see `Fixed`, `Pairs`, `Extending`), and tallies
  * per bucket what the engine charges for it afterwards: arrivals, steps,
  * neighbour work, survivors and, when asked, the vertices of the bucket's
  * block that a walk activated on arrival or stepped from. The lane that
  * steps a walk also routes it: a walk that leaves memory goes to the lane's
  * own part of its next pool, `WalkPools.home` of the blocks it stepped
  * between. Each walk is a pure function of (task seed, walk id, hop), so
  * which lane takes it cannot change it. Lanes count, log and mark into
  * their own state, which each allocates itself on first use; the caller
  * merges it in lane order: tallies after each sweep, and the trace words
  * as segments of each walk-id range of the corpus, visit counts in
  * `finish`, which also sorts the corpus's ranges on the lanes. Sums, a set
  * union and a multiset of pooled records do not depend on the lane or
  * order a walk had, and a walk sits in one lane per sweep, so its logged
  * steps stay in hop order: every count, corpus and visit vector is the one
  * a single thread gives. Lane state is allocated once per run.
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

  private val g = bg.g
  private val model = task.model
  private val secondOrder = model.isSecondOrder
  private val nB = bg.nBlocks

  /** What one lane recorded in the open sweep. Each array is allocated by
    * the lane's own thread when it first needs it, so lanes write apart.
    */
  private final class Lane(var visits: Array[Long]) {
    var counts: Array[Long] = null // per bucket, see `Fields`
    var marks: Array[Long] = null // a bit per vertex
    var logs: Array[TraceLog] = null // per walk-id range of the corpus

    def log(r: Int): TraceLog = {
      if (logs == null) logs = new Array[TraceLog](trace.ranges)
      if (logs(r) == null) logs(r) = new TraceLog
      logs(r)
    }
  }
  private val lanes = Array.tabulate(Lanes.count)(l => new Lane(if (l == 0) visits else null))
  // The last sweep's counts, summed over lanes.
  private val total = new Array[Long](Fields * nB)

  // The open job. The caller writes it before `claims` opens its chunks; a
  // lane reads it only after claiming one, and the caller moves on only
  // once every chunk is `completed`.
  private var job = Sweep
  private var jobParts = 1
  private var sweepWalks: WalkPool = _
  private var sweepBlock = 0
  private var sweepRule = Fixed
  private var sweepMarks = false
  private var sweepTo: WalkPools = _
  private var startSrcs: Array[Int] = _
  private var startIds: Array[Long] = _
  private var startFrom = 0L
  private var startTo = 0L
  // Unclaimed chunks of part p at claims(Spacing * p), a cache line apart.
  private val claims = new AtomicIntegerArray(Spacing * Lanes.count)
  private val completed = new AtomicInteger
  private val failure = new AtomicReference[Throwable]

  /** Append walk `id` at `src` to `into` and record its first vertex. */
  def start(id: Long, src: Int, into: WalkPart): Unit = {
    if (visits != null) visits(src) += 1
    if (trace != null) trace.start(id, src)
    into.add(id, 0, -1, src)
  }

  /** Step every record of `walks` in the time slot whose current block is
    * `b`, while its current block is `b` or its bucket's block (bucket rule
    * `rule`), and route each walk that leaves memory to its pool in `to`; a
    * walk that ended (stuck on a dangling vertex, or stopped by the task) is
    * dropped. `walks` is read, not changed. With `marks`, `touched` counts
    * the vertices each bucket activated or stepped from. A sweep of at
    * least `ParallelMin` records runs on every lane unless another sweep
    * holds them, each lane taking chunks of its own part of `walks` first;
    * a smaller one runs the same chunk loop on the caller alone. An
    * exception thrown in a lane is rethrown here, after the sweep.
    */
  def advanceAll(walks: WalkPool, b: Int, rule: Int, marks: Boolean, to: WalkPools): Unit = {
    sweepWalks = walks
    open(Sweep, walks.nParts, b, rule, marks, to)
    var chunks = 0
    var p = 0
    while (p < walks.nParts) {
      val n = (walks.part(p).length + Chunk - 1) / Chunk
      claims.set(Spacing * p, n)
      chunks += n
      p += 1
    }
    sweep(chunks, walks.length, marks)
  }

  /** Start walks `from until to` in the time slot whose current block is
    * `b` and sweep them as `advanceAll` does under rule `Fixed`, on the
    * lanes, each lane starting the walks of the chunks it claims. Walk `id`
    * starts at `srcs(o)` for the `o` with `firstIds(o) <= id < firstIds(o +
    * 1)`; `firstIds` ascends strictly.
    */
  def startAll(srcs: Array[Int], firstIds: Array[Long], from: Long, to: Long, b: Int, into: WalkPools): Unit = {
    val chunks = (to - from + Chunk - 1) / Chunk
    require(chunks <= Int.MaxValue, s"${to - from} walks started in one sweep")
    startSrcs = srcs
    startIds = firstIds
    startFrom = from
    startTo = to
    open(Start, 1, b, Fixed, marks = false, into)
    claims.set(0, chunks.toInt)
    sweep(chunks.toInt, to - from, marks = false)
  }

  /** Set the open sweep's job and rule; the caller then opens its chunks in
    * `claims`.
    */
  private def open(kind: Int, parts: Int, b: Int, rule: Int, marks: Boolean, to: WalkPools): Unit = {
    job = kind
    jobParts = parts
    sweepBlock = b
    sweepRule = rule
    sweepMarks = marks
    sweepTo = to
    completed.set(0)
  }

  /** Run the open sweep's `chunks` chunks, merge what the lanes recorded and
    * rethrow an exception a lane caught.
    */
  private def sweep(chunks: Int, work: Long, marks: Boolean): Unit = {
    runJob(chunks, work)
    merge(marks)
    rethrow()
  }

  /** Walks that entered bucket `i` in the last sweep: those that started in
    * it and those bucket-extending moved into it.
    */
  def arrivals(i: Int): Int = total(Fields * i + Arrivals).toInt

  /** Walks of the last sweep that left memory from bucket `i`. */
  def survivors(i: Int): Int = total(Fields * i + Survivors).toInt

  /** Vertices of block `i` that a walk of bucket `i` activated (its
    * previous or current vertex on arrival) or stepped from in the last
    * sweep, if it marked them.
    */
  def touched(i: Int): Int = total(Fields * i + Touched).toInt

  /** Charge the steps and neighbour work of bucket `i` of the last sweep. */
  def chargeSteps(i: Int): Unit = sim.chargeSteps(total(Fields * i + Steps), total(Fields * i + Work))

  /** Run the open job's `chunks` chunks, on every lane if its `work` is
    * worth sharing and no other job holds them.
    */
  private def runJob(chunks: Int, work: Long): Unit = {
    val shared = work >= ParallelMin && Lanes.acquire(this)
    runChunks(0)
    while (completed.get < chunks) Thread.onSpinWait()
    if (shared) Lanes.release()
  }

  private def rethrow(): Unit = {
    val e = failure.getAndSet(null)
    if (e != null) throw e
  }

  /** Run chunks of the open job as lane `l` until none is left: those of
    * part `l` first, then the other parts'.
    */
  private[engine] def runChunks(l: Int): Unit = {
    val parts = jobParts
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

  private def runChunk(l: Int, p: Int, c: Int): Unit =
    if (job == Seal) trace.sealRange(c)
    else {
      val lane = lanes(l)
      if (lane.counts == null) lane.counts = new Array[Long](Fields * nB)
      if (sweepMarks && lane.marks == null) lane.marks = new Array[Long]((g.nV + 63) >>> 6)
      if (visits != null && lane.visits == null) lane.visits = new Array[Long](g.nV)
      if (job == Start) startChunk(lane, l, c)
      else {
        val walks = sweepWalks.part(p).page(c / ChunksPerPage)
        var k = c % ChunksPerPage * Chunk
        val end = math.min(walks.length, k + Chunk)
        while (k < end) {
          advance(lane, l, walks.id(k), walks.prev(k), walks.cur(k), walks.hop(k))
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
      if (lane.visits != null) lane.visits(src) += 1
      if (trace != null) lane.log(trace.rangeOf(id)).add(TraceCollector.word(id, src))
      advance(lane, l, id, -1, src, 0)
      id += 1
    }
  }

  /** Step walk `id` from (`prev`, `cur`, `hop`) as lane `l` in the open
    * sweep, tally it, and route it to part `l` of its pool if it survives.
    */
  private def advance(lane: Lane, l: Int, id: Long, prev0: Int, cur0: Int, hop0: Int): Unit = {
    val b = sweepBlock
    val rule = sweepRule
    val counts = lane.counts
    val marks = if (sweepMarks) lane.marks else null
    val seen = lane.visits
    val log = if (trace != null) lane.log(trace.rangeOf(id)) else null
    var prev = prev0
    var cur = cur0
    var hop = hop0
    var cb = bg.blockOf(cur)
    var pb = if (rule == Fixed) b else bg.blockOf(prev)
    var i = if (rule == Fixed || pb != b) pb else cb
    var live = true
    var moving = true
    while (moving) {
      counts(Fields * i + Arrivals) += 1
      if (marks != null) {
        val lo = bg.blockStart(i)
        val hi = bg.blockStart(i + 1)
        if (prev >= lo && prev < hi) mark(marks, prev)
        if (cur >= lo && cur < hi) mark(marks, cur)
      }
      var steps = 0L
      var work = 0L
      while (live && (cb == b || cb == i)) {
        if (marks != null && cb == i) mark(marks, cur)
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
          if (log != null) log.add(TraceCollector.word(id, z))
          live = !task.stopsAfter(id, hop)
        }
      }
      counts(Fields * i + Steps) += steps
      counts(Fields * i + Work) += work
      // Bucket-extending (Alg. 2 l.14): a walk that stepped from b into a
      // block j beyond i goes on in bucket j.
      if (live && rule == Extending && pb == b && cb > i) i = cb
      else moving = false
    }
    if (live) {
      // Every survivor stepped in this sweep, so `pb` is its previous block.
      counts(Fields * i + Survivors) += 1
      sweepTo.pool(sweepTo.home(pb, cb)).part(l).add(id, hop, prev, cur)
    }
  }

  /** Sum the lanes' counts in lane order, count and clear the vertices they
    * marked in each bucket with arrivals, and hand each lane's trace words
    * of each range to the corpus.
    */
  private def merge(marked: Boolean): Unit = {
    java.util.Arrays.fill(total, 0L)
    var l = 0
    while (l < lanes.length) {
      val counts = lanes(l).counts
      if (counts != null) {
        var j = 0
        while (j < total.length) { total(j) += counts(j); counts(j) = 0; j += 1 }
      }
      l += 1
    }
    var i = 0
    while (i < nB) {
      if (marked && arrivals(i) > 0)
        total(Fields * i + Touched) = takeMarks(bg.blockStart(i), bg.blockStart(i + 1))
      i += 1
    }
    if (trace != null) {
      l = 0
      while (l < lanes.length) {
        val logs = lanes(l).logs
        if (logs != null) {
          var r = 0
          while (r < logs.length) { if (logs(r) != null) trace.take(r, logs(r)); r += 1 }
        }
        l += 1
      }
    }
  }

  /** Count the vertices in `lo until hi` that any lane marked, and unmark them. */
  private def takeMarks(lo: Int, hi: Int): Int = {
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
        if (m != null) { x |= m(w) & bits; m(w) &= ~bits }
        l += 1
      }
      n += java.lang.Long.bitCount(x)
      w += 1
    }
    n
  }

  /** End the run: add the lanes' visits, sort the corpus's ranges on the
    * lanes, one range per chunk, and return the simulated metrics.
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
    if (trace != null) {
      val ranges = trace.beginSeal()
      if (ranges > 0) {
        job = Seal
        jobParts = 1
        completed.set(0)
        claims.set(0, ranges)
        runJob(ranges, trace.nWalks)
        rethrow()
        trace.endSeal()
      }
    }
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

  // Lane jobs: a sweep's chunks are records, a start's walk ids, a seal's
  // walk-id ranges.
  private final val Sweep = 0
  private final val Start = 1
  private final val Seal = 2

  // The counts of bucket i are counts(Fields * i + field).
  private final val Arrivals = 0
  private final val Steps = 1
  private final val Work = 2
  private final val Survivors = 3
  private final val Touched = 4 // summed only, set by `merge`
  private final val Fields = 5

  /** Records a lane claims at a time. */
  private[engine] final val Chunk = 12

  private final val ChunksPerPage = WalkPart.PageWalks / Chunk

  /** The smallest job worth waking the other lanes for. */
  private final val ParallelMin = 48

  /** Ints per cache line: the stride of the per-part claim counters. */
  private final val Spacing = 16

  @inline private def mark(marks: Array[Long], v: Int): Unit = marks(v >>> 6) |= 1L << v
}

/** Walk initialization (paper Appendix B): iterate the blocks once
  * sequentially; start each walk at its source and advance it until it
  * leaves its source block or terminates. Afterwards no live walk has its
  * previous and current vertex in the same block — the invariant both the
  * skewed storage and the asynchronous update rely on.
  */
object Init {

  /** Walks started per sweep, which keeps a sweep's chunk count an `Int`. */
  private final val Batch = 1L << 30

  /** Runs initialization: the lanes start the walks and route every
    * survivor (its current vertex is outside its source block) to its pool
    * in `pools`.
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

    var b = 0
    while (b < bg.nBlocks) {
      if (first(b) < first(b + 1)) {
        sim.readBlock(bg.blockOffset(b), bg.blockBytes(b))
        sim.timeSlots += 1
        var from = firstIds(first(b))
        while (from < firstIds(first(b + 1))) {
          val to = math.min(firstIds(first(b + 1)), from + Batch)
          walker.startAll(srcs, firstIds, from, to, b, pools)
          walker.chargeSteps(b)
          from = to
        }
      }
      b += 1
    }
  }
}
