(* The shared input every workload starts from, generated from the seed:
   the 27,648-host Facebook fabric, 3,000 tenants placed at P = 12, a WVE
   group population, a uniformly drawn role per member, and [fmax] scaled
   to the group count the way [Scalability] scales it (30,000 entries at
   the paper's 1M groups). *)

let tenants = 3_000

(* Groups in the population. Large enough that the WVE tail (~0.6% of
   groups above 700 members) is present in every seed; small enough that
   the zipf-inject set-up — one serialized header per (group, sender)
   pair — stays within a few hundred MB. *)
let groups = 4_000

let scaled_fmax n = max 50 (30_000 * n / 1_000_000)

type t = {
  topo : Topology.t;
  params : Params.t;
  placement : Vm_placement.t;
  groups : Workload.group array;
  members : (int * Controller.role) list array;  (** indexed by group id *)
  rng : Rng.t;  (** the seed's stream for the workload's own draws *)
  place_s : float;
  generate_s : float;
}

let random_role rng =
  match Rng.int rng 3 with
  | 0 -> Controller.Sender
  | 1 -> Controller.Receiver
  | _ -> Controller.Both

let is_sender = function
  | Controller.Sender | Controller.Both -> true
  | Controller.Receiver -> false

let is_receiver = function
  | Controller.Receiver | Controller.Both -> true
  | Controller.Sender -> false

let build ~seed =
  let master = Rng.create seed in
  let place_rng = Rng.split master in
  let workload_rng = Rng.split master in
  let role_rng = Rng.split master in
  let topo = Topology.facebook_fabric () in
  let placement, place_us =
    Harness.timed (fun () ->
        let tenant_sizes = Vm_placement.default_tenant_sizes place_rng tenants in
        Vm_placement.place place_rng topo ~strategy:(Vm_placement.Pack_up_to 12)
          ~host_capacity:20 ~tenant_sizes)
  in
  let gs, generate_us =
    Harness.timed (fun () ->
        Workload.generate workload_rng placement ~kind:Group_dist.Wve
          ~total_groups:groups)
  in
  let members =
    Array.map
      (fun (g : Workload.group) ->
        Array.to_list
          (Array.map (fun h -> (h, random_role role_rng)) g.Workload.member_hosts))
      gs
  in
  {
    topo;
    params = Params.create ~fmax:(scaled_fmax groups) ();
    placement;
    groups = gs;
    members;
    rng = Rng.split master;
    place_s = place_us *. 1e-6;
    generate_s = generate_us *. 1e-6;
  }

(* A controller wired to a fresh fabric through [Fabric.controller_hooks]
   ([wrap] lets the traced run interpose on the hooks), with every group
   of [ids] installed by [Controller.add_group]. *)
let install ?(wrap = Fun.id) t ids =
  let fabric = Fabric.create t.topo in
  let ctrl =
    Controller.create ~fabric_hooks:(wrap (Fabric.controller_hooks fabric)) t.topo
      t.params
  in
  Array.iter
    (fun g -> ignore (Controller.add_group ctrl ~group:g t.members.(g) : Controller.updates))
    ids;
  (fabric, ctrl)

let all_ids t = Array.init (Array.length t.groups) Fun.id

(* The paper's overhead against ideal multicast, pooled over one sender
   per group (its lowest sending member): [Traffic.measure] of every
   installed encoding, summed, through [Traffic.overhead_ratio] at a
   64-byte payload. *)
let extra_traffic_pct ctrl ids =
  let tx = ref 0 and ideal = ref 0 and hdr = ref 0 and hosts = ref 0 and spur = ref 0 in
  Array.iter
    (fun g ->
      match Controller.encoding ctrl ~group:g with
      | None -> ()
      | Some enc -> (
          let senders =
            List.filter_map
              (fun (h, r) -> if is_sender r then Some h else None)
              (Controller.members ctrl ~group:g)
          in
          match List.sort compare senders with
          | [] -> ()
          | sender :: _ ->
              let c = Traffic.measure enc ~sender in
              tx := !tx + c.Traffic.transmissions;
              ideal := !ideal + c.Traffic.ideal_transmissions;
              hdr := !hdr + c.Traffic.header_bytes;
              hosts := !hosts + c.Traffic.delivered_hosts;
              spur := !spur + c.Traffic.spurious_hosts))
    ids;
  100.0
  *. Traffic.overhead_ratio ~payload:64
       {
         Traffic.transmissions = !tx;
         ideal_transmissions = !ideal;
         header_bytes = !hdr;
         delivered_hosts = !hosts;
         spurious_hosts = !spur;
       }

(* {1 Table-2-style membership churn}

   A mirror of every group's membership, kept by the benchmark so the
   event stream depends only on the seed, never on the system under test.
   The group of an event is drawn with weight proportional to its initial
   size; a join picks a VM of the group's own tenant that is not yet a
   member, with a random role; a leave picks a random member. *)

type event =
  | Join of { group : int; host : int; role : Controller.role }
  | Leave of { group : int; host : int; role : Controller.role }

type mirror = {
  pop : t;
  hosts : int array array;  (** per group; the live prefix is [size] *)
  roles : Controller.role array array;
  size : int array;
  index : (int, int) Hashtbl.t;  (** group * num_hosts + host -> slot *)
  cumulative : int array;  (** running sum of the initial sizes of [ids] *)
  ids : int array;
  erng : Rng.t;
}

let key t ~group ~host = (group * Topology.num_hosts t.pop.topo) + host

let mirror pop ids erng =
  let n = Array.length pop.groups in
  let hosts = Array.make n [||] and roles = Array.make n [||] in
  let size = Array.make n 0 in
  let index = Hashtbl.create 65536 in
  let total = ref 0 in
  let cumulative =
    Array.map
      (fun g ->
        let ms = Array.of_list pop.members.(g) in
        let k = Array.length ms in
        hosts.(g) <- Array.init (2 * k) (fun i -> if i < k then fst ms.(i) else 0);
        roles.(g) <- Array.init (2 * k) (fun i -> if i < k then snd ms.(i) else Controller.Sender);
        size.(g) <- k;
        Array.iteri
          (fun i (h, _) -> Hashtbl.replace index ((g * Topology.num_hosts pop.topo) + h) i)
          ms;
        total := !total + k;
        !total)
      ids
  in
  { pop; hosts; roles; size; index; cumulative; ids; erng }

let pick_group m =
  let total = m.cumulative.(Array.length m.cumulative - 1) in
  let x = Rng.int m.erng total in
  (* First cumulative weight strictly above [x]. *)
  let lo = ref 0 and hi = ref (Array.length m.cumulative - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if m.cumulative.(mid) > x then hi := mid else lo := mid + 1
  done;
  m.ids.(!lo)

let add_member m g host role =
  let n = m.size.(g) in
  if n = Array.length m.hosts.(g) then begin
    let grow a fill = Array.init (max 4 (2 * n)) (fun i -> if i < n then a.(i) else fill) in
    m.hosts.(g) <- grow m.hosts.(g) 0;
    m.roles.(g) <- grow m.roles.(g) Controller.Sender
  end;
  m.hosts.(g).(n) <- host;
  m.roles.(g).(n) <- role;
  m.size.(g) <- n + 1;
  Hashtbl.replace m.index (key m ~group:g ~host) n

let remove_slot m g i =
  let n = m.size.(g) - 1 in
  Hashtbl.remove m.index (key m ~group:g ~host:m.hosts.(g).(i));
  if i < n then begin
    m.hosts.(g).(i) <- m.hosts.(g).(n);
    m.roles.(g).(i) <- m.roles.(g).(n);
    Hashtbl.replace m.index (key m ~group:g ~host:m.hosts.(g).(i)) i
  end;
  m.size.(g) <- n

(* Groups keep at least two members; a join gives up after a bounded
   number of draws that all hit members and leaves instead. *)
let min_members = 2
let join_draws = 32

let next_event m =
  let g = pick_group m in
  let n = m.size.(g) in
  let tenant = m.pop.placement.Vm_placement.tenants.(m.pop.groups.(g).Workload.tenant_id) in
  let vms = tenant.Vm_placement.vm_hosts in
  let want_join = Rng.bool m.erng || n <= min_members in
  let rec draw k =
    if k = 0 then None
    else
      let h = Rng.choice m.erng vms in
      if Hashtbl.mem m.index (key m ~group:g ~host:h) then draw (k - 1) else Some h
  in
  let joined =
    if want_join && n < Array.length vms then
      match draw join_draws with
      | Some host ->
          let role = random_role m.erng in
          add_member m g host role;
          Some (Join { group = g; host; role })
      | None -> None
    else None
  in
  match joined with
  | Some ev -> ev
  | None ->
      let i = Rng.int m.erng n in
      let host = m.hosts.(g).(i) and role = m.roles.(g).(i) in
      remove_slot m g i;
      Leave { group = g; host; role }

let apply ctrl = function
  | Join { group; host; role } -> Controller.join ctrl ~group ~host ~role
  | Leave { group; host; _ } -> Controller.leave ctrl ~group ~host

let journal_op = function
  | Join { group; host; role } -> Journal.Join { group; host; role }
  | Leave { group; host; _ } -> Journal.Leave { group; host }

(* Order-sensitive digest of an event or packet stream, for the
   determinism self-test. *)
let mix h x = ((h * 1_000_003) lxor x) land max_int

let event_digest h = function
  | Join { group; host; role } ->
      mix (mix (mix (mix h 1) group) host) (Hashtbl.hash role)
  | Leave { group; host; _ } -> mix (mix (mix h 2) group) host

(* {1 Instrumented fabric hooks}

   The traced run wraps the six [fabric_hooks] callbacks: mutations and
   read-backs are counted apart, and every call is a span of the [hooks]
   layer nested inside the controller operation that issued it. *)

type hook_counts = { mutable mutations : int; mutable read_backs : int }

let hook_layer = Harness.Spans.layer "hooks"

let counting_hooks c (h : Controller.fabric_hooks) =
  let span f = Harness.Spans.span hook_layer f in
  let mut f =
    c.mutations <- c.mutations + 1;
    span f
  and read f =
    c.read_backs <- c.read_backs + 1;
    span f
  in
  {
    Controller.install_leaf =
      (fun ~leaf ~group bm -> mut (fun () -> h.Controller.install_leaf ~leaf ~group bm));
    remove_leaf = (fun ~leaf ~group -> mut (fun () -> h.Controller.remove_leaf ~leaf ~group));
    install_pod =
      (fun ~pod ~group bm -> mut (fun () -> h.Controller.install_pod ~pod ~group bm));
    remove_pod = (fun ~pod ~group -> mut (fun () -> h.Controller.remove_pod ~pod ~group));
    read_leaf = (fun ~leaf ~group -> read (fun () -> h.Controller.read_leaf ~leaf ~group));
    read_pod = (fun ~pod ~group -> read (fun () -> h.Controller.read_pod ~pod ~group));
  }

(* Per-group averages of the installed encodings and the ledger maxima. *)
let encoding_counts ctrl ids =
  let n = ref 0 and prules = ref 0 and srules = ref 0 and default = ref 0 in
  Array.iter
    (fun g ->
      match Controller.encoding ctrl ~group:g with
      | None -> ()
      | Some enc ->
          incr n;
          prules := !prules + Encoding.prule_count enc;
          srules := !srules + Encoding.srule_entries enc;
          if Encoding.uses_default enc then incr default)
    ids;
  let per x = float_of_int x /. float_of_int (max 1 !n) in
  let ledger = Controller.srule_state ctrl in
  let max_of a = float_of_int (Array.fold_left max 0 a) in
  [
    ("encoding.prules_per_group", per !prules);
    ("encoding.srules_per_group", per !srules);
    ("encoding.default_rule_share", per !default);
    ("srule_state.leaf_occupancy_max", max_of (Srule_state.leaf_occupancy ledger));
    ("srule_state.spine_occupancy_max", max_of (Srule_state.spine_occupancy ledger));
  ]

let update_count topo (u : Controller.updates) =
  List.length u.Controller.hypervisors + List.length u.Controller.leaves
  + Controller.spine_update_count topo u
