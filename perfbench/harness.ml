(* Measurement substrate of the benchmark: a monotonic nanosecond clock for
   every end-to-end sample, exact percentiles over the raw samples, the
   traced run's span accounting (self time = span minus the time its child
   spans cover) and the metric list every workload fills in. *)

module Clock = Elmo_obs.Clock

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* {1 Monotonic time} *)

let now_ns () = Monotonic_clock.now ()
let us_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-3
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* Runs [f], returning its result and its duration in microseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, us_since t0)

(* {1 Raw samples and exact percentiles} *)

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let total t =
    let s = ref 0.0 in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a

  (* A percentile is reported only when at least ten samples lie beyond
     it; below that it is a single outlier, not a percentile. *)
  let has_tail t q = Float.of_int t.n *. (1.0 -. q) >= 10.0

  let percentile t q =
    if not (has_tail t q) then
      invalid_arg
        (Printf.sprintf "p%g needs %d samples, have %d" (100.0 *. q)
           (int_of_float (Float.ceil (10.0 /. (1.0 -. q))))
           t.n);
    Stats.percentile (sorted t) q

  let mean t = if t.n = 0 then 0.0 else total t /. float_of_int t.n

  let append ~into t =
    for i = 0 to t.n - 1 do
      add into t.data.(i)
    done

  let median t =
    if t.n = 0 then invalid_arg "median of no samples";
    Stats.percentile (sorted t) 0.5

  (* The median, or 0 when a run stopped on a failure before it took a
     sample: the failed run still prints its result line. *)
  let median_or_zero t = if t.n = 0 then 0.0 else median t
end

(* {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The benchmark's result line: exactly the keys the benchmark contract
   names. [%.17g] keeps every digit of the measured value. *)
let json_line ~correct ~attempted ~failed metrics =
  let num v =
    if not (Float.is_finite v) then invalid_arg "json_line: non-finite metric value";
    if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v
  in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* {1 Failure accounting}

   A failed op is an exception, a Verify witness, a wrong delivery, or a
   failover that failed or left blackholes. Every one is counted against
   the ops attempted, and the first few are described on stderr. *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("FAILED: " ^ Lazy.force what)
  end

(* {1 Traced-run spans}

   Spans are recorded only in the traced run, from this benchmark's own
   code around its calls into each layer, on Elmo_obs's monotonic clock.
   Each open span accumulates the time of the spans nested in it; a
   layer's self time is its span time minus that. [credit] subtracts time
   measured by a separate replay (e.g. the tree and encode work inside
   [Controller.add_group]) from a layer's self time. *)

module Spans = struct
  type layer = {
    lname : string;
    mutable calls : int;
    mutable total_us : float;
    mutable self_us : float;
  }

  let on = ref false
  let clock = ref Clock.monotonic
  let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
  let child = Array.make 256 0.0
  let depth = ref 0

  (* Selects the span clock: Elmo_obs's monotonic clock unless the
     environment asks for another one, and a logical (tick-counting) clock
     is refused — spans must measure wall time. *)
  let pause () = on := false

  let enable () =
    let kind =
      match Sys.getenv_opt "ELMO_TRACE_CLOCK" with
      | None -> Clock.Monotonic
      | Some s -> (
          match Clock.kind_of_string s with Some k -> k | None -> Clock.Logical)
    in
    let c = Clock.of_kind kind in
    if Clock.kind c <> Clock.Monotonic then
      failwith "traced run found the logical clock; spans need the mono clock";
    clock := c;
    on := true

  let layer lname =
    match Hashtbl.find_opt layers lname with
    | Some l -> l
    | None ->
        let l = { lname; calls = 0; total_us = 0.0; self_us = 0.0 } in
        Hashtbl.add layers lname l;
        l

  let close l t0 =
    let dur = Clock.now_us !clock -. t0 in
    let nested = child.(!depth) in
    decr depth;
    child.(!depth) <- child.(!depth) +. dur;
    l.calls <- l.calls + 1;
    l.total_us <- l.total_us +. dur;
    l.self_us <- l.self_us +. dur -. nested

  let span l f =
    if not !on then f ()
    else begin
      let t0 = Clock.now_us !clock in
      incr depth;
      child.(!depth) <- 0.0;
      match f () with
      | r ->
          close l t0;
          r
      | exception e ->
          close l t0;
          raise e
    end

  (* [span] that also returns the span's duration (0 when tracing is off). *)
  let measure l f =
    let before = l.total_us in
    let r = span l f in
    (r, l.total_us -. before)

  let credit l us = l.self_us <- l.self_us -. us

  let mean_us l = if l.calls = 0 then 0.0 else l.total_us /. float_of_int l.calls

  let print_table () =
    let all =
      Hashtbl.fold (fun _ l acc -> if l.calls > 0 then l :: acc else acc) layers []
      |> List.sort (fun a b -> Float.compare b.self_us a.self_us)
    in
    let total = List.fold_left (fun a l -> a +. l.self_us) 0.0 all in
    Printf.printf "%-32s %10s %12s %12s %8s\n" "layer (span)" "calls" "total_ms"
      "self_ms" "self%";
    List.iter
      (fun l ->
        Printf.printf "%-32s %10d %12.3f %12.3f %7.1f%%\n" l.lname l.calls
          (l.total_us /. 1e3) (l.self_us /. 1e3)
          (if total > 0.0 then 100.0 *. l.self_us /. total else 0.0))
      all
end

(* {1 Garbage collector} *)

let heap_peak_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let st = Gc.quick_stat () in
  { minor_words = st.Gc.minor_words; major_collections = st.Gc.major_collections }

(* [gc.minor_words_per_op] and [gc.major_collections] over a timed loop. *)
let gc_metrics m0 ~ops =
  let m1 = gc_mark () in
  [
    ("gc.minor_words_per_op", (m1.minor_words -. m0.minor_words) /. float_of_int (max 1 ops));
    ("gc.major_collections", float_of_int (m1.major_collections - m0.major_collections));
  ]

(* {1 Workload results} *)

type report = {
  tally : tally;
  e2e : metric list;
      (** [ops_per_s], [op_p50_us], [op_p95_us], [check_ms],
          [extra_traffic_pct]; main.ml adds [setup_s] and
          [heap_peak_mb] *)
  layers : (string * float) list;
      (** per-layer metrics this workload exercises; units come from the
          per-layer table in main.ml *)
  counts : (string * float) list;
      (** seed-determined counts, compared by the determinism self-test *)
  digest : int;  (** digest of the op or packet stream over the count window *)
}

(* Op latencies by phase. The first ops of a run (a workload's count
   window, or its first pass) warm caches and grow the heap, and are kept
   out of the reported latencies. After them a traced run alternates
   untraced and traced ops (passes, in wve-setup; failover cycles, in
   durable-failover), so the tracing overhead compares like with like; an
   untraced run fills [warm] and [untraced] only.

   Every op latency after the warm-up also lands in a block of [block]
   consecutive ops. Throughput and the exact p50/p95/p99 are computed per
   block from its raw samples and reported as their median over the
   blocks, so a burst of interference from outside the process slows some
   blocks, not the median one. A trailing partial block is dropped. *)
type phases = {
  warm : Samples.t;
  untraced : Samples.t;
  traced : Samples.t;
  block : int;
  current : Samples.t;
  rates : Samples.t;
  p50s : Samples.t;
  p95s : Samples.t;
  p99s : Samples.t;
}

let phases ~block =
  let s = Samples.create in
  let current = s () and rates = s () in
  {
    warm = s ();
    untraced = s ();
    traced = s ();
    block;
    current;
    rates;
    p50s = s ();
    p95s = s ();
    p99s = s ();
  }

(* Selects whether the next op, or group of ops numbered [block], is
   traced. *)
let trace_block ~trace ~warm ~block =
  if trace && (not warm) && block land 1 = 1 then (if not !Spans.on then Spans.enable ())
  else Spans.pause ()

let record p ~warm us =
  Samples.add (if warm then p.warm else if !Spans.on then p.traced else p.untraced) us;
  let b = p.current in
  if not warm then Samples.add b us;
  if Samples.count b = p.block then begin
    Samples.add p.rates (float_of_int p.block /. (Samples.total b *. 1e-6));
    Samples.add p.p50s (Samples.percentile b 0.5);
    Samples.add p.p95s (Samples.percentile b 0.95);
    Samples.add p.p99s (Samples.percentile b 0.99);
    b.Samples.n <- 0
  end

let all p =
  let s = Samples.create () in
  Samples.append ~into:s p.warm;
  Samples.append ~into:s p.untraced;
  Samples.append ~into:s p.traced;
  s

(* The bounded tail is p95. p99 is printed beside it but not reported:
   in wve-churn it falls on the gap between re-encodes of typical groups
   and of the few largest ones, and swings by about 40% from run to run. *)
let op_metrics p =
  let median = Samples.median_or_zero in
  say "  blocks of %d ops: %d; per-block exact percentiles, median over blocks: op_p99_us %.3f"
    p.block (Samples.count p.rates) (median p.p99s);
  [
    metric "ops_per_s" "1/s" (median p.rates);
    metric "op_p50_us" "us" (median p.p50s);
    metric "op_p95_us" "us" (median p.p95s);
  ]

(* The traced run's cost: median op latency traced against untraced. *)
let trace_overhead p =
  let untraced = Samples.median_or_zero p.untraced in
  ( "obs.trace_overhead_pct",
    if untraced = 0.0 then 0.0 else 100.0 *. ((Samples.median_or_zero p.traced /. untraced) -. 1.0) )
