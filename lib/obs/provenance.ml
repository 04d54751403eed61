type t = {
  git_rev : string;
  cores : int;
  seed : int option;
  params : string option;
  clock : string;
}

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let capture ?seed ?params () =
  {
    git_rev = git_rev ();
    cores = Domain.recommended_domain_count ();
    seed;
    params;
    clock = Clock.kind_to_string (Clock.kind_of_env ());
  }

let to_json t =
  Printf.sprintf
    "{\"git_rev\":%s,\"cores\":%d,\"seed\":%s,\"params\":%s,\"clock\":%s}"
    (Jsonx.string t.git_rev) t.cores
    (match t.seed with Some s -> string_of_int s | None -> "null")
    (match t.params with Some p -> Jsonx.string p | None -> "null")
    (Jsonx.string t.clock)

let pp ppf t =
  Format.fprintf ppf "rev=%s cores=%d%s%s clock=%s" t.git_rev t.cores
    (match t.seed with Some s -> Printf.sprintf " seed=%d" s | None -> "")
    (match t.params with Some p -> " params=[" ^ p ^ "]" | None -> "")
    t.clock
