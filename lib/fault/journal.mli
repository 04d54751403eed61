(** Journal operations for crash-consistent recovery.

    Every externally-driven controller mutation is recorded as a pure value
    {e before} being applied — as an op record of a {!Wire} log — so that a
    crashed controller can be rebuilt as [restore latest_snapshot] + replay
    of the ops written since that snapshot. Replay re-executes the
    controller's own entry points — the journal stores intent, not effects
    — so a recovered controller recomputes bit-identical encodings, ledger
    occupancy and churn counters (the controller is deterministic given the
    same op order). *)

type op =
  | Add_group of { group : int; members : (int * Controller.role) list }
  | Remove_group of { group : int }
  | Join of { group : int; host : int; role : Controller.role }
  | Leave of { group : int; host : int }
  | Fail_spine of int
  | Recover_spine of int
  | Fail_core of int
  | Recover_core of int
  | Fail_link of { leaf : int; plane : int }
  | Recover_link of { leaf : int; plane : int }

val apply : Controller.t -> op -> unit
(** Re-executes the op against a controller, discarding its report. *)

val write_op : Byteio.Writer.t -> op -> unit
(** Durable wire codec for one op (the payload of a [Wire] op record). *)

val read_op : topo:Topology.t -> Byteio.Reader.t -> op
(** Inverse of {!write_op}. Validates every switch/host id against [topo]
    — replay re-executes controller entry points, which raise on
    out-of-range arguments, so a flipped bit must surface as
    {!Byteio.Reader.Corrupt} at load time rather than an exception
    mid-replay. *)

val pp_op : Format.formatter -> op -> unit
