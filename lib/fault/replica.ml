module Obs = Elmo_obs.Obs

type t = {
  snapshot_every : int;
  ctrl : Controller.t;
  observer : (Journal.op -> unit) option;
  mutable since_checkpoint : int;  (* ops applied since the last checkpoint *)
  wire : Wire.t option;
  mutable epoch : int;  (* fencing epoch stamped on appended records *)
}

let checkpoint t =
  t.since_checkpoint <- 0;
  (match t.wire with
  | Some w -> Wire.append_snapshot w ~epoch:t.epoch t.ctrl
  | None -> ());
  Obs.incr "replica.checkpoints"

let create ?(snapshot_every = 64) ?fabric_hooks ?(incremental = true)
    ?(durable = false) ?observer topo params =
  let ctrl = Controller.create ?fabric_hooks ~incremental topo params in
  let wire =
    if not durable then None
    else begin
      (* Genesis snapshot: the wire is self-contained from byte 0 — a log
         that loses every later snapshot still recovers from here. *)
      let w = Wire.create () in
      Wire.append_snapshot w ~epoch:0 ctrl;
      Some w
    end
  in
  { snapshot_every; ctrl; observer; since_checkpoint = 0; wire; epoch = 0 }

let controller t = t.ctrl
let wire t = t.wire
let epoch t = t.epoch

let set_epoch t e =
  if e < t.epoch then invalid_arg "Replica.set_epoch: epoch regression";
  t.epoch <- e

let apply t op =
  (match t.observer with Some f -> f op | None -> ());
  (* Write-ahead: the op record is durable before execution, so a crash
     mid-execute replays it rather than losing it. *)
  (match t.wire with
  | Some w -> Wire.append_op w ~epoch:t.epoch op
  | None -> ());
  Journal.apply t.ctrl op;
  t.since_checkpoint <- t.since_checkpoint + 1;
  if t.since_checkpoint >= t.snapshot_every then checkpoint t

let installed_config t = Controller.installed_config t.ctrl

let of_wire ?(snapshot_every = 64) ?fabric_hooks ?observer ?epoch
    (l : Wire.loaded) =
  match l.Wire.l_snapshot with
  | None -> Error "wire log has no recoverable snapshot"
  | Some snap -> (
      let epoch = match epoch with Some e -> e | None -> l.Wire.l_epoch in
      if epoch < l.Wire.l_epoch then
        Error
          (Printf.sprintf "epoch %d regresses below the log's epoch %d" epoch
             l.Wire.l_epoch)
      else
        match
          Obs.with_span "replica.of_wire" @@ fun () ->
          let ctrl = Controller.restore ?fabric_hooks snap in
          (* The observer (the flight recorder) sees every replayed op,
             then the op executes. *)
          List.iter
            (fun op ->
              (match observer with Some f -> f op | None -> ());
              Journal.apply ctrl op)
            l.Wire.l_suffix;
          Obs.observe "replica.replayed_ops"
            (float_of_int (List.length l.Wire.l_suffix));
          (* Seed a fresh wire with the post-replay state: the new log is
             self-contained and the old (possibly corrupt) bytes are never
             appended to. *)
          let w = Wire.create () in
          Wire.append_snapshot w ~epoch ctrl;
          {
            snapshot_every;
            ctrl;
            observer;
            since_checkpoint = 0;
            wire = Some w;
            epoch;
          }
        with
        | t -> Ok t
        | exception exn ->
            (* Replay executes controller entry points over decoded — but
               adversarial — state; any failure is a recovery failure, not
               a crash of the supervisor. *)
            Error
              (Printf.sprintf "replay failed: %s" (Printexc.to_string exn)))
