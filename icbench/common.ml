(* Shared plumbing of the benchmark: clocks, the result digest, run-local
   temp directories, process facts, and the in-memory span recorder the
   traced run uses. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* how big a round is: [Full] for measurement, [Tiny] for the
   benchmark's own tests (every code path, seconds of work) *)

type scale = Full | Tiny

(* ------------------------------------------------------------------ *)
(* the result digest: every cost and cycle count a round produced, in
   order, hashed; the same seed must reproduce it exactly *)

module Rd = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let str b s = Buffer.add_string b s; Buffer.add_char b '|'
  let int b i = str b (string_of_int i)
  let float b f = str b (Printf.sprintf "%h" f)
  let finish b = Digest.to_hex (Digest.string (Buffer.contents b))
end

(* ------------------------------------------------------------------ *)
(* files *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Every store of a run lives under one per-process directory inside the
   working directory, removed at exit; each round gets a fresh, empty
   subdirectory so no round (and no run) starts warm. *)
let out_root = "_icbench"
let run_dir = lazy (
  let d = Filename.concat out_root (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  let self = Unix.getpid () in
  (* forked pool workers inherit at_exit: only the owner removes it *)
  at_exit (fun () -> if Unix.getpid () = self then rm_rf d);
  d)

let round_counter = ref 0

let fresh_dir name =
  incr round_counter;
  let d =
    Filename.concat (Lazy.force run_dir)
      (Printf.sprintf "%s-%d" name !round_counter)
  in
  rm_rf d;
  mkdir_p d;
  d

(* ------------------------------------------------------------------ *)
(* process facts *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let nproc () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> 0
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l >= 9 && String.sub l 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n

(* ------------------------------------------------------------------ *)
(* statistics *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile of a sorted array *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* compiling the suite: the frontend, called directly (the workloads
   library memoizes its own compile, which would hide set-up work) *)

let compile name =
  Mira.Lower.compile_source_exn (Workloads.by_name_exn name).Workloads.source

(* ------------------------------------------------------------------ *)
(* Spans of the traced run.  Recorded only by the traced run's own
   calls into each layer; kept in memory and written out at the end.
   A span has a name, start, end, the span that caused it, the
   operation (one evaluation or pricing) it belongs to, and the track
   (0 = benchmark process, else a pool worker's pid) it ran on. *)

module Span = struct
  type t = {
    id : int;
    name : string;
    t0 : float;
    t1 : float;
    parent : int;  (* 0 = top level *)
    op : int;      (* 0 = not part of one evaluation or pricing *)
    track : int;
  }

  let next_id = ref 0
  let stack = ref []
  let cur_op = ref 0
  let next_op = ref 0
  let track = ref 0
  let recorded : t list ref = ref []

  let reset () =
    next_id := 0;
    stack := [];
    cur_op := 0;
    next_op := 0;
    track := 0;
    recorded := []

  let span name f =
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      recorded :=
        { id; name; t0; t1; parent; op = !cur_op; track = !track }
        :: !recorded
    in
    match f () with
    | r -> finish (); r
    | exception e -> finish (); raise e

  (* the spans of one evaluation or pricing share an operation id *)
  let new_op () =
    incr next_op;
    !next_op

  let with_op op f =
    let saved = !cur_op in
    cur_op := op;
    Fun.protect ~finally:(fun () -> cur_op := saved) f

  (* for a pooled task: record [f]'s spans on the worker's own track and
     hand them back with the result, for the parent to {!adopt}.  The
     pool runs a lone task in the calling process, so the caller's
     spans are set aside, not lost. *)
  let collect f =
    let saved = !recorded and saved_track = !track in
    recorded := [];
    track := Unix.getpid ();
    let restore () =
      let mine = !recorded in
      recorded := saved;
      track := saved_track;
      mine
    in
    match f () with
    | r -> (r, restore ())
    | exception e -> ignore (restore ()); raise e

  (* adopt spans recorded in a worker: fresh ids, so they cannot clash
     with the parent's; spans whose parent was open in the parent at
     fork time (the pool call) keep that parent *)
  let adopt spans =
    let remap = Hashtbl.create 16 in
    List.iter
      (fun s ->
        incr next_id;
        Hashtbl.replace remap s.id !next_id)
      spans;
    List.iter
      (fun s ->
        let parent =
          match Hashtbl.find_opt remap s.parent with
          | Some p -> p
          | None -> s.parent
        in
        recorded := { s with id = Hashtbl.find remap s.id; parent } :: !recorded)
      spans

  (* Self time: a span's duration minus the part its children on the
     same track cover.  Same-track children nest and never overlap, so
     that part is their summed duration.  Worker spans are children of
     the pool call but run on other tracks: they are the pooled tasks'
     serial time, not a cover of the parent's wait. *)
  let self_times spans =
    let covered = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if s.parent <> 0 then
          Hashtbl.replace covered (s.parent, s.track)
            ((s.t1 -. s.t0)
            +. Option.value ~default:0.0
                 (Hashtbl.find_opt covered (s.parent, s.track))))
      spans;
    List.map
      (fun s ->
        let c =
          Option.value ~default:0.0 (Hashtbl.find_opt covered (s.id, s.track))
        in
        (s, s.t1 -. s.t0 -. c))
      spans

  (* Chrome trace_event JSON (complete "X" events), viewable in
     chrome://tracing or Perfetto *)
  let write_chrome file spans =
    let oc = open_out file in
    output_string oc "{\"traceEvents\":[\n";
    let base =
      List.fold_left (fun a s -> Float.min a s.t0) infinity spans
    in
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}\n"
          (if i = 0 then "" else ",")
          s.name s.track s.track
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. s.t0) *. 1e6)
          s.id s.parent s.op)
      (List.sort (fun a b -> compare a.t0 b.t0) spans);
    output_string oc "]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* what a workload hands back to main.ml *)

type metric = string * float * string  (* name, value, unit *)

(* One round of a workload: set-up, then the timed phase, which is a
   cold part against fresh stores and a warm part after the stores were
   closed and reopened. *)
type round = {
  setup_s : float;
  wall_s : float;       (* the whole timed phase *)
  cold_s : float;
  cold_ops : int;       (* operations completed in the cold part *)
  warm_s : float;
  warm_ops : int;
  lat_ms : float list;  (* latency of each operation a user waits on *)
  digest : string;      (* result digest of the round *)
  health : int;         (* engine-health events (failures) *)
  pooled_s : float;     (* untraced wall of the pooled calls *)
}
