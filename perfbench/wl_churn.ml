(* wve-churn: the realistic membership mix of Table 2. Set-up installs the
   population; the timed part is a closed loop of joins and leaves through
   [Controller.join]/[leave] (one client, next event after the previous one
   returns), re-checked by [Verify.check_controller_cached] every
   [check_every] events and once at the end. It exercises
   [Encoding.apply_delta]'s fast path against full re-encode fallbacks and
   builds no group from scratch. *)

open Harness

type state = {
  pop : Population.t;
  ctrl : Controller.t;
  cache : Verify.cache;
  mirror : Population.mirror;
  hooks : Population.hook_counts;
  installed_ok : (int, Verify.witness) result;
}

(* Events whose counts are seed-determined: the count metrics and the
   digest cover exactly this prefix of the stream, however long the timed
   loop runs. *)
let count_window = 20_000
let check_every = 10_000
let block = 2_500

(* Only a traced run interposes on the fabric hooks, so untraced figures
   carry no benchmark code inside the controller's calls. *)
let setup ~seed ~trace =
  let pop = Population.build ~seed in
  let ids = Population.all_ids pop in
  let hooks = { Population.mutations = 0; read_backs = 0 } in
  let wrap = if trace then Population.counting_hooks hooks else Fun.id in
  let _fabric, ctrl = Population.install ~wrap pop ids in
  let cache = Verify.create_cache () in
  let installed_ok = Verify.check_controller_cached cache ctrl in
  { pop; ctrl; cache; mirror = Population.mirror pop ids (Rng.split pop.Population.rng); hooks; installed_ok }

type cls = In_place | New_leaf | Emptied_leaf | Sender_only

(* Classified from outside, before the event, from the group's tree leaf
   bitmap and the event's role. *)
let classify st (ev : Population.event) =
  let topo = st.pop.Population.topo in
  let leaf_bits group host =
    match Controller.encoding st.ctrl ~group with
    | None -> None
    | Some enc -> Tree.leaf_bitmap enc.Encoding.tree (Topology.leaf_of_host topo host)
  in
  match ev with
  | Join { role = Controller.Sender; _ } | Leave { role = Controller.Sender; _ } -> Sender_only
  | Join { group; host; _ } -> (
      match leaf_bits group host with None -> New_leaf | Some _ -> In_place)
  | Leave { group; host; _ } -> (
      match leaf_bits group host with
      | Some bm when Bitmap.popcount bm = 1 -> Emptied_leaf
      | _ -> In_place)

let l_event = Spans.layer "controller.join_leave"
let l_view = Spans.layer "installed_config.view"
let l_check = Spans.layer "verify.check_config_cached"

let run st ~seconds ~trace =
  let pop = st.pop and ctrl = st.ctrl in
  let ids = Population.all_ids pop in
  let tally = tally () in
  let describe = function
    | Ok _ -> ""
    | Error w -> Format.asprintf "verify witness %a" Verify.pp_witness w
  in
  attempt tally (Result.is_ok st.installed_ok) (lazy (describe st.installed_ok));
  let ph = phases ~block in
  let checks = Samples.create () in
  (* Traced events, split by the path the controller took. *)
  let fast = Samples.create () and reencode = Samples.create () in
  let by_class = Array.make 4 0 in
  let updates = ref 0 and digest = ref 0 in
  let counts = ref [] in
  let cs0 = Controller.churn_stats ctrl in
  let hits0, misses0 = Verify.cache_stats st.cache in
  let ops0 = st.hooks.Population.mutations and reads0 = st.hooks.Population.read_backs in
  let check () =
    let t0 = now_ns () in
    let verdict =
      if !Spans.on then begin
        let view = Spans.span l_view (fun () -> Controller.installed_config ctrl) in
        let dirty = Controller.drain_dirty ctrl in
        Spans.span l_check (fun () -> Verify.check_config_cached st.cache view ~dirty)
      end
      else Verify.check_controller_cached st.cache ctrl
    in
    Samples.add checks (us_since t0 /. 1e3);
    attempt tally (Result.is_ok verdict) (lazy (describe verdict))
  in
  let gc0 = gc_mark () in
  let t_start = now_ns () in
  let events = ref 0 in
  while !events < count_window + block || s_since t_start < seconds
        || (trace && Samples.count ph.traced = 0) do
    let in_window = !events < count_window in
    trace_block ~trace ~warm:in_window ~block:!events;
    let tracing = !Spans.on in
    let ev = Population.next_event st.mirror in
    let cls = if in_window then classify st ev else In_place in
    let before = if tracing then Controller.churn_stats ctrl else cs0 in
    let t0 = now_ns () in
    let outcome =
      match Spans.span l_event (fun () -> Population.apply ctrl ev) with
      | u -> Ok u
      | exception e -> Error e
    in
    let dt = us_since t0 in
    record ph ~warm:in_window dt;
    (match outcome with
    | Ok u ->
        attempt tally true (lazy "");
        if in_window then updates := !updates + Population.update_count pop.Population.topo u
    | Error e -> attempt tally false (lazy ("churn event: " ^ Printexc.to_string e)));
    if tracing then begin
      let after = Controller.churn_stats ctrl in
      if after.Controller.fast_path > before.Controller.fast_path then Samples.add fast dt
      else if after.Controller.reencoded > before.Controller.reencoded then Samples.add reencode dt
    end;
    if in_window then begin
      let i = match cls with In_place -> 0 | New_leaf -> 1 | Emptied_leaf -> 2 | Sender_only -> 3 in
      by_class.(i) <- by_class.(i) + 1;
      digest := Population.event_digest !digest ev
    end;
    incr events;
    if !events = count_window then begin
      let cs = Controller.churn_stats ctrl in
      let fast = cs.Controller.fast_path - cs0.Controller.fast_path in
      let reenc = cs.Controller.reencoded - cs0.Controller.reencoded in
      let share i = float by_class.(i) /. float count_window in
      counts :=
        [
          ("extra_traffic_pct", Population.extra_traffic_pct ctrl ids);
          ("churn.fast_path_share", float fast /. float (max 1 (fast + reenc)));
          ("churn.new_leaf_share", share 1);
          ("churn.emptied_leaf_share", share 2);
          ("churn.sender_only_share", share 3);
          ("controller.updates_per_event", float !updates /. float count_window);
        ]
        @ Population.encoding_counts ctrl ids
    end;
    if !events mod check_every = 0 then check ()
  done;
  if !events mod check_every <> 0 then check ();
  Spans.pause ();
  let all = all ph in
  let hits1, misses1 = Verify.cache_stats st.cache in
  let hits = hits1 - hits0 and misses = misses1 - misses0 in
  say "wve-churn: %d events; churn_events_per_s %.0f; fast path %.1f%% of receiver events (count window)"
    !events (float (Samples.count all) /. (Samples.total all *. 1e-6))
    (100.0 *. List.assoc "churn.fast_path_share" !counts);
  let e2e =
    op_metrics ph
    @ [
        metric "check_ms" "ms" (Samples.median_or_zero checks);
        metric "extra_traffic_pct" "%" (List.assoc "extra_traffic_pct" !counts);
      ]
  in
  let layers =
    !counts
    @ [ ("verify.cache_hit_share", float hits /. float (max 1 (hits + misses))) ]
    @ gc_metrics gc0 ~ops:(Samples.count all)
  in
  let layers =
    if not trace then layers
    else
      let ops = float (Samples.count ph.traced) in
      layers
      @ [
          ("churn.fast_us", Samples.mean fast);
          ("churn.reencode_us", Samples.mean reencode);
          ("hooks.calls_per_op", float (st.hooks.Population.mutations - ops0) /. float !events);
          ("hooks.read_backs_per_op", float (st.hooks.Population.read_backs - reads0) /. float !events);
          ("hooks.us_per_op", Population.hook_layer.Spans.total_us /. ops);
          trace_overhead ph;
        ]
  in
  { tally; e2e; layers; counts = !counts; digest = !digest }
