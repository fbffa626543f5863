(* The persistent trace store: codec round-trips (bit-exact, compact),
   cross-process persistence (add / close / reopen / find), torn-write
   quarantine and self-healing, absorb for distributed sweeps, the
   write-through tier under Tcache, and Engine.Grid's bit-identity to
   Sim.run_grid. *)

module Mtrace = Mach.Mtrace
module Replay = Mach.Replay
module Config = Mach.Config
module Flatsim = Mach.Flatsim
module Tstore = Engine.Tstore
module Tcache = Engine.Tcache
module Faults = Engine.Faults

let fuel = Mach.Sim.default_fuel

let tmp_dir prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let compile src =
  match Mira.Lower.compile_source src with
  | Ok p -> p
  | Error e -> Alcotest.failf "test program does not compile: %s" e

let trap_program =
  {|fn main() -> int {
      var s: int = 0;
      for i = 0 to 10 { s = s + i; }
      print(s);
      return 1 / (s - s);
    }|}

(* bit-identity of two simulator results; Stdlib.compare so floats match
   by bit-pattern semantics (NaN = NaN) *)
let same (a : Flatsim.result) (b : Flatsim.result) =
  Stdlib.compare
    ( a.Flatsim.cycles, a.Flatsim.counters, a.Flatsim.ret, a.Flatsim.output,
      a.Flatsim.steps )
    ( b.Flatsim.cycles, b.Flatsim.counters, b.Flatsim.ret, b.Flatsim.output,
      b.Flatsim.steps )
  = 0

(* ------------------------------------------------------------------ *)
(* the codec *)

(* Round-trip over the whole workload suite plus a trapping and an
   exhausted trace: decode (encode tr) is bit-exact, a replay of the
   decoded trace is bit-identical to a replay of the original on every
   preset config, and the encoding stays compact (< 4 bytes per trace
   word — the acceptance bound; the observed average is under 2). *)
let test_codec_round_trip () =
  let check_one name (tr : Mtrace.t) =
    let s = Mtrace.encode tr in
    match Mtrace.decode s with
    | Error m -> Alcotest.failf "%s: decode failed: %s" name m
    | Ok tr' ->
      Alcotest.(check bool) (name ^ ": bit-exact") true (Mtrace.equal tr tr');
      (* the < 4 B/word bound is an amortized claim: fixed metadata
         (outcome, return value, signature table) dominates tiny traces,
         so hold real workload traces to it, not the 5-word programs *)
      if tr.Mtrace.n >= 1000 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: compact (%d bytes / %d words)" name
             (String.length s) tr.Mtrace.n)
          true
          (String.length s < 4 * tr.Mtrace.n);
      List.iter
        (fun config ->
          let run tr () = Replay.run ~config tr in
          match (run tr (), run tr' ()) with
          | a, b ->
            Alcotest.(check bool)
              (Printf.sprintf "%s on %s: replay of decoded trace" name
                 config.Config.name)
              true (same a b)
          | exception Mira.Interp.Trap m -> (
            match run tr' () with
            | _ -> Alcotest.failf "%s: decoded trace does not trap" name
            | exception Mira.Interp.Trap m' ->
              Alcotest.(check string) (name ^ ": trap message") m m')
          | exception Mira.Interp.Out_of_fuel -> (
            match run tr' () with
            | _ -> Alcotest.failf "%s: decoded trace not exhausted" name
            | exception Mira.Interp.Out_of_fuel -> ()))
        Config.all
  in
  List.iter
    (fun (w : Workloads.t) ->
      check_one w.Workloads.name
        (Mtrace.generate ~fuel (Mira.Decode.decode (Workloads.program w))))
    Workloads.all;
  check_one "trap" (Mtrace.generate_program ~fuel (compile trap_program));
  check_one "exhausted"
    (Mtrace.generate_program ~fuel:10 (compile trap_program))

let test_codec_rejects_garbage () =
  let tr =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 7; }|})
  in
  let s = Mtrace.encode tr in
  Alcotest.(check bool) "empty" true (Result.is_error (Mtrace.decode ""));
  Alcotest.(check bool)
    "bad version" true
    (Result.is_error (Mtrace.decode ("\xff" ^ String.sub s 1 (String.length s - 1))));
  Alcotest.(check bool)
    "truncated" true
    (Result.is_error (Mtrace.decode (String.sub s 0 (String.length s / 2))));
  Alcotest.(check bool)
    "trailing bytes" true
    (Result.is_error (Mtrace.decode (s ^ "\x00")));
  (* well-formed code for tables the replay would index out of bounds *)
  let inconsistent name (tr : Mtrace.t) =
    Alcotest.(check bool) name true
      (Result.is_error (Mtrace.decode (Mtrace.encode tr)))
  in
  inconsistent "simple run past the signature table"
    { tr with Mtrace.events = [| 5 lsl 10 |]; n = 1 };
  inconsistent "use past the sentinel"
    { tr with Mtrace.sig_u0 = Array.make (Array.length tr.Mtrace.sig_u0)
                                 (tr.Mtrace.max_reg + 2) };
  inconsistent "short counter bank"
    { tr with Mtrace.base = Array.sub tr.Mtrace.base 0 3 }

(* A small hand-built trace that exercises every corner of the v1 code:
   all four tags, multi-byte LEB128 tails, a negative same-tag delta, a
   trapped outcome, and array return values with int and float
   payloads.  Its bytes are pinned below, so the encoder can only be
   rewritten to write exactly what v1 stores already hold. *)
let golden_trace =
  let w tag v = (v lsl 2) lor tag in
  {
    Mtrace.events =
      [|
        w 0 1 (* simple run: signatures 0, 1 *);
        w 1 16 (* long run: 3 x class 0 *);
        w 2 200000 (* load at 100000: two tail bytes *);
        w 2 199985 (* store at 99992: negative delta *);
        w 3 15 (* branch site 7, taken *);
        w 3 14 (* same site, not taken *);
        w 0 256 (* simple run: signature 1 *);
        0 (* capacity past n is not part of the trace *);
      |];
    n = 7;
    sig_uses = [| [| 1; 2 |]; [||] |];
    sig_dst = [| 3; 4 |];
    sig_u0 = [| 1; 5 |];
    sig_u1 = [| 2; 5 |];
    max_reg = 4;
    base = Array.init Mach.Counters.count (fun i -> i * i * 50);
    outcome = Mtrace.Trapped "division by zero";
    ret =
      Mira.Interp.VArr
        {
          Mira.Interp.payload = Mira.Interp.IA [| 3; -2; 1 lsl 40 |];
          base = 64;
          esize = 8;
          mask32 = false;
        };
    output = "45\n";
    steps = 300;
  }

let golden_trace_fa =
  {
    golden_trace with
    Mtrace.outcome = Mtrace.Finished;
    ret =
      Mira.Interp.VArr
        {
          Mira.Interp.payload = Mira.Interp.FA [| 1.5; -0.0 |];
          base = 0;
          esize = 4;
          mask32 = true;
        };
  }

let golden_hex =
  "010708810182d461767b07f80f0206010208050504140032c801c203a006e209"
  ^ "880e92138019d21f8827a22fa0388242c84cf2578064f270c87e828d01011064"
  ^ "69766973696f6e206279207a65726f0400030603808080808040400800033435"
  ^ "0aac02"

let golden_fa_hex =
  "010708810182d461767b07f80f0206010208050504140032c801c203a006e209"
  ^ "880e92138019d21f8827a22fa0388242c84cf2578064f270c87e828d01000401"
  ^ "02000000000000f83f00000000000000800004010334350aac02"

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let to_hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let goldens =
  [ ("IA ret, trapped", golden_trace, golden_hex);
    ("FA ret, finished", golden_trace_fa, golden_fa_hex) ]

let test_codec_golden_bytes () =
  List.iter
    (fun (name, tr, hex) ->
      Alcotest.(check string) (name ^ ": encode") hex (to_hex (Mtrace.encode tr));
      match Mtrace.decode (of_hex hex) with
      | Ok tr' ->
        Alcotest.(check bool) (name ^ ": decode is bit-exact") true
          (Mtrace.equal tr tr')
      | Error m -> Alcotest.failf "%s: golden bytes do not decode: %s" name m)
    goldens

(* the hand-rolled decoder's bounds checks: every strict prefix is an
   error, and every single-byte substitution is either an error or a
   payload that re-encodes to exactly itself — never an exception *)
let test_codec_prefixes_and_flips () =
  let decode_no_raise name s =
    match Mtrace.decode s with
    | r -> r
    | exception e ->
      Alcotest.failf "%s: decode raised %s" name (Printexc.to_string e)
  in
  List.iter
    (fun (name, _, hex) ->
      let s = of_hex hex in
      for k = 0 to String.length s - 1 do
        if Result.is_ok (decode_no_raise name (String.sub s 0 k)) then
          Alcotest.failf "%s: %d-byte prefix decoded" name k
      done;
      let accepted = ref 0 in
      for i = 0 to String.length s - 1 do
        for mask = 1 to 255 do
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code s.[i] lxor mask));
          let s' = Bytes.to_string b in
          match decode_no_raise name s' with
          | Error _ -> ()
          | Ok tr ->
            incr accepted;
            if Mtrace.encode tr <> s' then
              Alcotest.failf "%s: byte %d ^ %#x decodes to a different code"
                name i mask
        done
      done;
      (* most substitutions only change a value (a delta, a counter, a
         string byte): those must decode, to a different trace *)
      Alcotest.(check bool) (name ^ ": some substitutions decode") true
        (!accepted > 0))
    goldens

(* values outside the 62-bit zigzag range still have a code *)
let test_codec_extreme_ints () =
  List.iter
    (fun i ->
      let tr = { golden_trace_fa with Mtrace.ret = Mira.Interp.VInt i } in
      match Mtrace.decode (Mtrace.encode tr) with
      | Ok tr' ->
        Alcotest.(check bool) (Printf.sprintf "%d round-trips" i) true
          (Mtrace.equal tr tr')
      | Error m -> Alcotest.failf "%d: %s" i m)
    [ max_int; min_int; 1 lsl 61; -(1 lsl 61) - 1; 0; -1 ]

(* ------------------------------------------------------------------ *)
(* persistence across a process boundary (open / close / reopen) *)

let test_store_round_trip () =
  let dir = tmp_dir "tstore" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = Workloads.program (List.hd Workloads.all) in
  let tr = Mtrace.generate ~fuel (Mira.Decode.decode p) in
  let d = Engine.Pctrie.digest p in
  let ts = Tstore.open_dir dir in
  Alcotest.(check int) "fresh store is empty" 0 (Tstore.entries ts);
  Alcotest.(check bool) "miss before add" true
    (Tstore.find ts ~ir_digest:d ~fuel = None);
  Tstore.add ts ~ir_digest:d ~fuel tr;
  Tstore.add ts ~ir_digest:d ~fuel tr (* idempotent *);
  Alcotest.(check int) "one entry" 1 (Tstore.entries ts);
  Tstore.close ts;
  (* a new handle — the cross-run path: everything must come back from
     disk, bit for bit *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check int) "entry survived the reopen" 1 (Tstore.entries ts);
  Alcotest.(check int) "nothing quarantined" 0 (Tstore.quarantined ts);
  Alcotest.(check bool) "fuel is part of the key" true
    (Tstore.find ts ~ir_digest:d ~fuel:(fuel - 1) = None);
  match Tstore.find ts ~ir_digest:d ~fuel with
  | None -> Alcotest.fail "stored trace not found after reopen"
  | Some tr' ->
    Alcotest.(check bool) "bit-exact after reopen" true (Mtrace.equal tr tr');
    List.iter
      (fun config ->
        Alcotest.(check bool)
          (config.Config.name ^ ": replay from the store")
          true
          (same (Replay.run ~config tr) (Replay.run ~config tr')))
      Config.all

(* ------------------------------------------------------------------ *)
(* torn writes: quarantine, never a crash, and self-healing *)

let test_torn_write_quarantine () =
  let dir = tmp_dir "tstore-torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let tr1 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 1; }|})
  in
  let tr2 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 2; }|})
  in
  let ts = Tstore.open_dir dir in
  Tstore.add ts ~ir_digest:"a" ~fuel tr1;
  (* the second append is torn mid-payload, as a crash would leave it
     (occurrences are 0-based: @0 tears the first append in the plan) *)
  Faults.with_plan (Faults.parse_exn "tstore-write@0") (fun () ->
      Tstore.add ts ~ir_digest:"b" ~fuel tr2);
  Alcotest.(check bool) "torn entry not indexed" true
    (not (Tstore.mem ts ~ir_digest:"b" ~fuel));
  Tstore.close ts;
  (* reopen: the intact entry is served, the torn one is quarantined and
     scrubbed from the log (self-heal), and a re-add sticks *)
  let ts = Tstore.open_dir dir in
  Alcotest.(check int) "torn entry quarantined" 1 (Tstore.quarantined ts);
  Alcotest.(check int) "intact entry survives" 1 (Tstore.entries ts);
  (match Tstore.find ts ~ir_digest:"a" ~fuel with
  | Some tr -> Alcotest.(check bool) "intact payload" true (Mtrace.equal tr1 tr)
  | None -> Alcotest.fail "intact entry lost to the tear");
  Tstore.add ts ~ir_digest:"b" ~fuel tr2;
  Tstore.close ts;
  (* the heal was written out: a third open sees a clean two-entry log *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Alcotest.(check int) "log healed" 0 (Tstore.quarantined ts);
  Alcotest.(check int) "both entries" 2 (Tstore.entries ts);
  match Tstore.find ts ~ir_digest:"b" ~fuel with
  | Some tr -> Alcotest.(check bool) "re-added payload" true (Mtrace.equal tr2 tr)
  | None -> Alcotest.fail "re-added entry lost"

(* ------------------------------------------------------------------ *)
(* absorb: the distributed-sweep merge *)

let test_absorb () =
  let dir = tmp_dir "tstore-main" and wdir = tmp_dir "tstore-worker" in
  Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf wdir) @@ fun () ->
  let tr1 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 1; }|})
  in
  let tr2 =
    Mtrace.generate_program ~fuel (compile {|fn main() -> int { return 2; }|})
  in
  let w = Tstore.open_dir wdir in
  Tstore.add w ~ir_digest:"shared" ~fuel tr1;
  Tstore.add w ~ir_digest:"fresh" ~fuel tr2;
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  Tstore.add ts ~ir_digest:"shared" ~fuel tr1;
  Tstore.close w;
  (* a donor locked by a live foreign process must be refused, not
     merged (pid 1 is always alive); a dead owner's lock — the usual
     crashed-worker case — does not block *)
  let wlock = Filename.concat wdir "tstore.lock" in
  let oc = open_out wlock in
  output_string oc "1";
  close_out oc;
  (match Tstore.absorb ts wdir with
  | _ -> Alcotest.fail "absorbing a live store must raise"
  | exception Tstore.Store_error _ -> ());
  Sys.remove wlock;
  let st = Tstore.absorb ts wdir in
  Alcotest.(check int) "absorbed" 1 st.Tstore.absorbed;
  Alcotest.(check int) "duplicates" 1 st.Tstore.duplicates;
  Alcotest.(check int) "rejected" 0 st.Tstore.rejected;
  Alcotest.(check int) "merged size" 2 (Tstore.entries ts);
  (* a missing donor is an empty merge, not an error *)
  let st = Tstore.absorb ts (Filename.concat wdir "nope") in
  Alcotest.(check int) "missing donor absorbs nothing" 0 st.Tstore.absorbed;
  match Tstore.find ts ~ir_digest:"fresh" ~fuel with
  | Some tr -> Alcotest.(check bool) "merged payload" true (Mtrace.equal tr2 tr)
  | None -> Alcotest.fail "absorbed entry not found"

(* ------------------------------------------------------------------ *)
(* the write-through tier: Tcache in front of Tstore *)

let test_tcache_write_through () =
  let dir = tmp_dir "tstore-tier" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = compile {|fn main() -> int { return 41 + 1; }|} in
  let gen_calls = ref 0 in
  let gen () = incr gen_calls; Mtrace.generate_program ~fuel p in
  let ts = Tstore.open_dir dir in
  let tc = Tcache.create ~store:ts () in
  let tr = Tcache.find_or_generate tc ~ir_digest:"p" ~fuel gen in
  Alcotest.(check int) "generated once" 1 !gen_calls;
  Alcotest.(check int) "written through" 1 (Tstore.entries ts);
  ignore (Tcache.find_or_generate tc ~ir_digest:"p" ~fuel gen);
  Alcotest.(check int) "memory hit, no second generate" 1 !gen_calls;
  Tstore.close ts;
  (* a cold cache over the same store: the trace must come from disk,
     never from the generator *)
  let ts = Tstore.open_dir dir in
  Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
  let tc = Tcache.create ~store:ts () in
  let tr' =
    Tcache.find_or_generate tc ~ir_digest:"p" ~fuel (fun () ->
        Alcotest.fail "store-backed miss must not regenerate")
  in
  Alcotest.(check int) "store hit" 1 (Tstore.hits ts);
  Alcotest.(check bool) "bit-exact through the tier" true
    (Mtrace.equal tr tr')

(* ------------------------------------------------------------------ *)
(* grid pricing *)

let same_sim (a : Mach.Sim.result) (b : Mach.Sim.result) =
  Stdlib.compare
    (a.Mach.Sim.cycles, a.Mach.Sim.counters, a.Mach.Sim.ret,
     a.Mach.Sim.output, a.Mach.Sim.steps)
    (b.Mach.Sim.cycles, b.Mach.Sim.counters, b.Mach.Sim.ret,
     b.Mach.Sim.output, b.Mach.Sim.steps)
  = 0

let grid_sample = [ List.hd Workloads.all; List.nth Workloads.all 4 ]

let test_grid_bit_identical () =
  let configs = Array.of_list Config.all in
  List.iter
    (fun (w : Workloads.t) ->
      let p = Workloads.program w in
      let serial = Mach.Sim.run_grid ~configs p in
      List.iter
        (fun jobs ->
          let got = Engine.Grid.run_grid ~jobs ~configs p in
          Array.iteri
            (fun i a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s on %s, jobs %d: == Sim.run_grid"
                   w.Workloads.name configs.(i).Config.name jobs)
                true (same_sim a got.(i)))
            serial)
        [ 1; 4 ])
    grid_sample

(* the configs are folded in the caller, whatever [jobs] says *)
let test_grid_no_pool_task () =
  let configs = Array.of_list Config.all in
  let tasks = Obs.Metrics.counter "pool.tasks" in
  let p = Workloads.program (List.hd grid_sample) in
  let before = Obs.Metrics.value tasks in
  ignore (Engine.Grid.run_grid ~jobs:1 ~configs p);
  ignore (Engine.Grid.run_grid ~jobs:4 ~configs p);
  Alcotest.(check int) "no pool task started" before (Obs.Metrics.value tasks)

let test_parallel_grid_trap () =
  let p = compile trap_program in
  let configs = Array.of_list Config.all in
  match Engine.Grid.run_grid ~jobs:2 ~configs p with
  | _ -> Alcotest.fail "grid of a trapping program must raise"
  | exception Mira.Interp.Trap m ->
    Alcotest.(check string) "trap message" "division by zero" m

(* a store-backed grid across a reopen: second run replays from disk *)
let test_grid_from_store () =
  let dir = tmp_dir "tstore-grid" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let w = List.hd Workloads.all in
  let p = Workloads.program w in
  let configs = Array.of_list Config.all in
  let run () =
    let ts = Tstore.open_dir dir in
    Fun.protect ~finally:(fun () -> Tstore.close ts) @@ fun () ->
    Engine.Grid.run_grid ~tcache:(Tcache.create ~store:ts ()) ~configs p
  in
  let cold = run () and warm = run () in
  let serial = Mach.Sim.run_grid ~configs p in
  Array.iteri
    (fun i a ->
      List.iter
        (fun (b, leg) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s: %s grid == direct simulation"
               w.Workloads.name configs.(i).Config.name leg)
            true (same_sim a b))
        [ (cold.(i), "cold"); (warm.(i), "warm") ])
    serial

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    ( "codec",
      [
        slow "round-trip: bit-exact, replayable, compact (suite + trap + fuel)"
          test_codec_round_trip;
        t "garbage is rejected, never crashes" test_codec_rejects_garbage;
        t "golden bytes: v1 code pinned" test_codec_golden_bytes;
        t "prefixes and byte flips: error or canonical, never raises"
          test_codec_prefixes_and_flips;
        t "extreme ints round-trip" test_codec_extreme_ints;
      ] );
    ( "store",
      [
        t "add / close / reopen / find round-trip" test_store_round_trip;
        t "torn write: quarantined and self-healed" test_torn_write_quarantine;
        t "absorb merges worker stores" test_absorb;
        t "Tcache writes through and reads back" test_tcache_write_through;
      ] );
    ( "grid",
      [
        (* name kept from the forked grid: the serial reference is
           [Sim.run_grid], checked at jobs 1 and 4 *)
        t "parallel grid == serial grid (bit-identical)"
          test_grid_bit_identical;
        t "no pool task started" test_grid_no_pool_task;
        t "parallel grid re-raises traps" test_parallel_grid_trap;
        t "store-backed grid across a reopen" test_grid_from_store;
      ] );
  ]

let () = Alcotest.run "tstore" suite
