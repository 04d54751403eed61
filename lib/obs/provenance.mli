(** Uniform run provenance stamped into benchmark JSON files and experiment
    output: git revision, core count, seed, parameter string,
    and the trace-clock kind in effect. One shared definition replaces the
    per-benchmark ad-hoc stamping that used to live in [bench/main.ml]. *)

type t = {
  git_rev : string;  (** short HEAD revision, or ["unknown"] outside a repo *)
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  seed : int option;
  params : string option;  (** rendered [Params.pp], if relevant *)
  clock : string;  (** {!Clock.kind_of_env} at capture time *)
}

val capture : ?seed:int -> ?params:string -> unit -> t
(** Runs [git rev-parse] once per call. *)

val to_json : t -> string
(** One JSON object, e.g.
    [{"git_rev":"3c675f6","cores":8,"seed":5,"params":null,"clock":"logical"}]. *)

val pp : Format.formatter -> t -> unit
