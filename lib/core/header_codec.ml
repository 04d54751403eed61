let layer_widths topo = function
  | `Spine -> (Topology.spine_downstream_width topo, Topology.spine_id_bits topo)
  | `Leaf -> (Topology.leaf_downstream_width topo, Topology.leaf_id_bits topo)

let read_uprule r ~down_width ~up_width =
  let down = Bitio.Reader.bitmap r down_width in
  let up = Bitio.Reader.bitmap r up_width in
  let multipath = Bitio.Reader.bit r in
  { Prule.down; up; multipath }

let read_section topo r layer =
  let width, id_bits = layer_widths topo layer in
  let rec rules acc =
    if Bitio.Reader.bit r then begin
      let bitmap = Bitio.Reader.bitmap r width in
      let rec ids acc =
        let id = Bitio.Reader.bits r id_bits in
        if Bitio.Reader.bit r then ids (id :: acc) else List.rev (id :: acc)
      in
      rules ({ Prule.bitmap; switches = ids [] } :: acc)
    end
    else List.rev acc
  in
  let rules = rules [] in
  let default =
    if Bitio.Reader.bit r then Some (Bitio.Reader.bitmap r width) else None
  in
  (rules, default)

(* The upstream sections, in wire order, then both downstream sections
   through [section] — the trusting [read_section] or the validating
   [checked_section]. *)
let read_header ~section topo r =
  let u_leaf =
    read_uprule r
      ~down_width:(Topology.leaf_downstream_width topo)
      ~up_width:(Topology.leaf_upstream_width topo)
  in
  let u_spine =
    if Bitio.Reader.bit r then
      Some
        (read_uprule r
           ~down_width:(Topology.spine_downstream_width topo)
           ~up_width:(Topology.spine_upstream_width topo))
    else None
  in
  let core =
    if Bitio.Reader.bit r then
      Some (Bitio.Reader.bitmap r (Topology.core_downstream_width topo))
    else None
  in
  let d_spine, d_spine_default = section topo r `Spine in
  let d_leaf, d_leaf_default = section topo r `Leaf in
  { Prule.u_leaf; u_spine; core; d_spine; d_spine_default; d_leaf; d_leaf_default }

let decode topo data = read_header ~section:read_section topo (Bitio.Reader.of_bytes data)

let encoded_size topo h = Prule.header_bytes topo h

type stage = Full | After_u_leaf | After_u_spine | After_core | After_d_spine

let stage_bits topo stage h =
  match stage with
  | Full -> Prule.header_bits topo h
  | After_u_leaf -> Prule.remaining_bits_after topo h `U_leaf
  | After_u_spine -> Prule.remaining_bits_after topo h `U_spine
  | After_core -> Prule.remaining_bits_after topo h `Core
  | After_d_spine -> Prule.remaining_bits_after topo h `D_spine

(* {1 Hostile-input decoding}

   [decode] trusts its input — a flipped bit can raise [Truncated] or
   produce ids the fabric would misroute on. [decode_checked] is the total
   boundary for bytes of unknown provenance: it never raises, rejects any
   id outside the topology, any switch claimed by two rules of one section
   (which also bounds section size: a section can hold at most one rule
   mention per switch), and any nonzero or byte-plus trailing slack. What
   structural checking cannot rule out — a well-formed header that delivers
   to ports the group's intent does not cover — is the verify layer's job
   ([Verify.admit_header] subsumption). *)

type decode_error =
  | Truncated  (** input ends inside a field *)
  | Id_out_of_range of { spine : bool; id : int }
      (** a p-rule identifier beyond the topology's switch count *)
  | Duplicate_id of { spine : bool; id : int }
      (** one switch claimed by two rules of the same section *)
  | Trailing_bits
      (** more than a byte of slack after the header, or nonzero padding *)

let pp_decode_error ppf = function
  | Truncated -> Format.fprintf ppf "truncated header"
  | Id_out_of_range { spine; id } ->
      Format.fprintf ppf "%s id %d out of range"
        (if spine then "spine" else "leaf")
        id
  | Duplicate_id { spine; id } ->
      Format.fprintf ppf "duplicate %s id %d"
        (if spine then "spine" else "leaf")
        id
  | Trailing_bits -> Format.fprintf ppf "trailing bits after header"

exception Reject of decode_error

let checked_section topo r layer =
  let width, id_bits = layer_widths topo layer in
  let spine = match layer with `Spine -> true | `Leaf -> false in
  let count =
    match layer with
    | `Spine -> topo.Topology.pods
    | `Leaf -> Topology.num_leaves topo
  in
  (* A bit per switch: the Facebook fabric's 576 leaves take 10 words, far
     under [Max_young_wosize], so a checked decode never allocates in the
     major heap directly (a [bool array] of that length would). *)
  let seen = Bitmap.create count in
  let rec rules acc =
    if Bitio.Reader.bit r then begin
      let bitmap = Bitio.Reader.bitmap r width in
      let rec ids acc_ids =
        let id = Bitio.Reader.bits r id_bits in
        if id >= count then raise (Reject (Id_out_of_range { spine; id }));
        if Bitmap.get seen id then raise (Reject (Duplicate_id { spine; id }));
        Bitmap.set seen id;
        if Bitio.Reader.bit r then ids (id :: acc_ids)
        else List.rev (id :: acc_ids)
      in
      rules ({ Prule.bitmap; switches = ids [] } :: acc)
    end
    else List.rev acc
  in
  let rules = rules [] in
  let default =
    if Bitio.Reader.bit r then Some (Bitio.Reader.bitmap r width) else None
  in
  (rules, default)

let decode_checked topo data =
  match
    let r = Bitio.Reader.of_bytes data in
    let h = read_header ~section:checked_section topo r in
    (* Strict framing: at most the current byte's padding may remain, and
       it must be all-zero — a header buried in a longer hostile buffer is
       rejected rather than silently truncated. *)
    if Bitio.Reader.remaining r >= 8 then raise (Reject Trailing_bits);
    while Bitio.Reader.remaining r > 0 do
      if Bitio.Reader.bit r then raise (Reject Trailing_bits)
    done;
    h
  with
  | h -> Ok h
  | exception Reject e -> Error e
  | exception Bitio.Reader.Truncated -> Error Truncated

(* {1 Encoding: the one writer}

   Every encoder goes through a caller-provided {!Bitio.Sink}, with no heap
   allocation on the success path: [encode_into] is the primitive, [encode]
   runs it on a buffer of exactly [encoded_size] bytes, and [encode_parts]
   runs the same section writers once per part. *)

(* elmo-lint: zero-alloc *)
let require_switches (r : Prule.prule) =
  match r.Prule.switches with
  | [] ->
      (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
      invalid_arg "Header_codec: p-rule with no switch identifiers" (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  | _ :: _ -> ()

(* elmo-lint: zero-alloc *)
let rec write_ids_into s id_bits ids =
  match ids with
  | [] -> ()
  | [ id ] ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s false
  | id :: rest ->
      Bitio.Sink.bits s id id_bits;
      Bitio.Sink.bit s true;
      write_ids_into s id_bits rest

(* elmo-lint: zero-alloc *)
let rec write_rules_into s width id_bits rules =
  match rules with
  | [] -> ()
  | r :: rest ->
      require_switches r;
      if Bitmap.width r.Prule.bitmap <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Header_codec: p-rule bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s r.Prule.bitmap;
      write_ids_into s id_bits r.Prule.switches;
      write_rules_into s width id_bits rest

(* elmo-lint: zero-alloc *)
let write_section_into s width id_bits rules default =
  write_rules_into s width id_bits rules;
  Bitio.Sink.bit s false;
  match default with
  | None -> Bitio.Sink.bit s false
  | Some bm ->
      if Bitmap.width bm <> width then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Header_codec: default bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s bm

(* elmo-lint: zero-alloc *)
let write_uprule_into s ~down_width ~up_width (u : Prule.uprule) =
  if
    Bitmap.width u.Prule.down <> down_width
    || Bitmap.width u.Prule.up <> up_width
  then
    (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
    invalid_arg "Header_codec: upstream rule width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
  Bitio.Sink.bitmap s u.Prule.down;
  Bitio.Sink.bitmap s u.Prule.up;
  Bitio.Sink.bit s u.Prule.multipath

(* elmo-lint: zero-alloc *)
let write_u_leaf_into topo s (h : Prule.header) =
  write_uprule_into s
    ~down_width:(Topology.leaf_downstream_width topo)
    ~up_width:(Topology.leaf_upstream_width topo)
    h.Prule.u_leaf

(* elmo-lint: zero-alloc *)
let write_u_spine_into topo s (h : Prule.header) =
  match h.Prule.u_spine with
  | None -> Bitio.Sink.bit s false
  | Some u ->
      Bitio.Sink.bit s true;
      write_uprule_into s
        ~down_width:(Topology.spine_downstream_width topo)
        ~up_width:(Topology.spine_upstream_width topo)
        u

(* elmo-lint: zero-alloc *)
let write_core_into topo s (h : Prule.header) =
  match h.Prule.core with
  | None -> Bitio.Sink.bit s false
  | Some bm ->
      if Bitmap.width bm <> Topology.core_downstream_width topo then
        (* elmo-lint: allow zero-alloc — error path: raising Invalid_argument allocates *)
        invalid_arg "Header_codec: core bitmap width mismatch"; (* elmo-lint: allow exception-discipline — documented API-misuse guard *)
      Bitio.Sink.bit s true;
      Bitio.Sink.bitmap s bm

(* elmo-lint: zero-alloc *)
let encode_into topo (h : Prule.header) s =
  write_u_leaf_into topo s h;
  write_u_spine_into topo s h;
  write_core_into topo s h;
  write_section_into s
    (Topology.spine_downstream_width topo)
    (Topology.spine_id_bits topo)
    h.Prule.d_spine h.Prule.d_spine_default;
  write_section_into s
    (Topology.leaf_downstream_width topo)
    (Topology.leaf_id_bits topo)
    h.Prule.d_leaf h.Prule.d_leaf_default;
  Bitio.Sink.finish s

(* [Prule]'s size accounting raises its own error on an empty switch list;
   checking first keeps the codec's. *)
let require_all_switches (h : Prule.header) =
  List.iter require_switches h.Prule.d_spine;
  List.iter require_switches h.Prule.d_leaf

let encode topo h =
  require_all_switches h;
  let buf = Bytes.create (encoded_size topo h) in
  ignore (encode_into topo h (Bitio.Sink.of_bytes buf) : int);
  buf

let encode_parts topo (h : Prule.header) =
  (* One byte-aligned buffer per section/rule - the unit of a "write call"
     in the per-rule encapsulation path (§4.2). The parts are written back
     to back into one buffer: each adds at most 7 padding bits, and a rule
     part 2 bits (terminator, absent default) over its share of
     [encoded_size], so 2 spare bytes per part always suffice. *)
  require_all_switches h;
  let nparts = 5 + List.length h.Prule.d_spine + List.length h.Prule.d_leaf in
  let buf = Bytes.create (encoded_size topo h + (2 * nparts)) in
  let s = Bitio.Sink.of_bytes buf in
  let parts = ref [] in
  let emit write =
    let start = Bitio.Sink.byte_pos s in
    write s;
    let stop = Bitio.Sink.finish s in
    parts := Bytes.sub buf start (stop - start) :: !parts
  in
  emit (fun s -> write_u_leaf_into topo s h);
  emit (fun s -> write_u_spine_into topo s h);
  emit (fun s -> write_core_into topo s h);
  let emit_section width id_bits rules default =
    List.iter
      (fun r -> emit (fun s -> write_section_into s width id_bits [ r ] None))
      rules;
    emit (fun s -> write_section_into s width id_bits [] default)
  in
  emit_section
    (Topology.spine_downstream_width topo)
    (Topology.spine_id_bits topo)
    h.Prule.d_spine h.Prule.d_spine_default;
  emit_section
    (Topology.leaf_downstream_width topo)
    (Topology.leaf_id_bits topo)
    h.Prule.d_leaf h.Prule.d_leaf_default;
  List.rev !parts

let encode_per_rule_writes topo h =
  Bytes.concat Bytes.empty (encode_parts topo h)
