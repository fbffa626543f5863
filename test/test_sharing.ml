(* Memoization soundness of the prefix-sharing layer, fuzzed through
   the shared testgen library:
   - trie-shared compilation is structurally identical to direct
     Pass.apply_sequence on every (program, sequence) pair, including
     under a capacity-1 trie that evicts on every step;
   - the sharing engine's outcomes (cost, cycles, code size, counters)
     are those of the no-share engine, batch and serial, so dedup can
     never change a search result;
   - the --no-share escape hatch really is the seed engine: zero trie
     traffic, one simulation per miss;
   - the digest moves with every field the printer hides, its
     initializer memo never changes a digest, and entries keyed under
     the previous digest version are orphaned, not served or
     quarantined. *)

module Pass = Passes.Pass
module Pctrie = Engine.Pctrie

let config = Mach.Config.default

(* generated programs (fixed seed range) plus the real workload the
   sweep benchmark exercises *)
let programs =
  Workloads.program (Workloads.by_name_exn "adpcm")
  :: List.filter_map
       (fun seed ->
         match Testgen.Gen_program.compile seed with
         | Ok p -> Some p
         | Error _ -> None)
       (List.init 12 (fun i -> 7000 + i))

let sequences n seed =
  let rng = Random.State.make [| seed |] in
  Search.Space.sample_distinct rng n

(* the digest captures printed IR plus the printer-omitted state
   (fresh-name counters, global element types/initializers, main), so
   digest equality is structural identity for every later pass and the
   simulator; the printed form is checked too for a readable failure *)
let check_same_program label direct shared =
  Alcotest.(check string)
    (label ^ ": printed IR")
    (Mira.Ir.to_string direct)
    (Mira.Ir.to_string shared);
  Alcotest.(check string)
    (label ^ ": digest")
    (Pctrie.digest direct) (Pctrie.digest shared)

let test_trie_matches_direct () =
  let trie = Pctrie.create () in
  List.iteri
    (fun pi p ->
      let d0 = Pctrie.digest p in
      List.iteri
        (fun si seq ->
          let direct = Pass.apply_sequence seq p in
          let shared, dg = Pctrie.apply_sequence trie p ~digest:d0 seq in
          let label = Printf.sprintf "prog %d seq %d" pi si in
          check_same_program label direct shared;
          Alcotest.(check string)
            (label ^ ": returned digest")
            (Pctrie.digest direct) dg)
        (sequences 25 (100 + pi)))
    programs;
  (* the batch above shares prefixes for real *)
  Alcotest.(check bool) "trie was hit" true (Pctrie.hits trie > 0)

let test_trie_eviction_sound () =
  (* capacity 1: every apply evicts; results must not change *)
  let trie = Pctrie.create ~capacity:1 () in
  let p = List.hd programs in
  let d0 = Pctrie.digest p in
  List.iteri
    (fun si seq ->
      let direct = Pass.apply_sequence seq p in
      let shared, _ = Pctrie.apply_sequence trie p ~digest:d0 seq in
      check_same_program (Printf.sprintf "evicting seq %d" si) direct shared)
    (sequences 12 42);
  Alcotest.(check bool) "evictions happened" true (Pctrie.evictions trie > 0);
  Alcotest.(check bool) "capacity respected" true (Pctrie.resident trie <= 1)

let check_outcomes_match label (a : Engine.outcome array)
    (b : Engine.outcome array) =
  Alcotest.(check int) (label ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Engine.outcome) ->
      let y = b.(i) in
      if
        not
          (x.Engine.cost = y.Engine.cost
          && x.Engine.cycles = y.Engine.cycles
          && x.Engine.code_size = y.Engine.code_size
          && x.Engine.counters = y.Engine.counters)
      then Alcotest.failf "%s: outcome %d differs" label i)
    a

let test_share_outcomes_identical_batch () =
  List.iteri
    (fun pi p ->
      let seqs = sequences 40 (500 + pi) in
      let off = Engine.create ~share:false config in
      let on_ = Engine.create ~share:true config in
      let a = Engine.eval_batch off p seqs in
      let b = Engine.eval_batch on_ p seqs in
      check_outcomes_match (Printf.sprintf "prog %d" pi) a b;
      (* sharing must actually have shared on batches this size *)
      let s = Engine.stats on_ in
      Alcotest.(check int)
        (Printf.sprintf "prog %d: misses all served" pi)
        (List.length seqs)
        (s.Engine.sims + s.Engine.dedup_hits))
    programs

let test_share_outcomes_identical_serial () =
  let p = List.hd programs in
  let off = Engine.create ~share:false config in
  let on_ = Engine.create ~share:true config in
  List.iteri
    (fun i seq ->
      let a = Engine.eval off p seq in
      let b = Engine.eval on_ p seq in
      if a.Engine.cost <> b.Engine.cost then
        Alcotest.failf "serial eval %d differs" i)
    (sequences 30 9)

let test_no_share_is_seed_engine () =
  let eng = Engine.create ~share:false config in
  Alcotest.(check bool) "share off" false (Engine.share eng);
  Alcotest.(check bool) "no trie" true (Engine.trie eng = None);
  let p = List.hd programs in
  let seqs = sequences 20 3 in
  ignore (Engine.eval_batch eng p seqs);
  let s = Engine.stats eng in
  Alcotest.(check int) "one simulation per miss" (List.length seqs)
    s.Engine.sims;
  Alcotest.(check int) "no dedup" 0 s.Engine.dedup_hits

(* ------------------------------------------------------------------ *)
(* the digest itself *)

module Ir = Mira.Ir

(* two globals on either side of the initializer memo's size cut-off,
   with initial values that differ only in sign somewhere *)
let digest_src =
  {|global big: int[100] = {1, 2, 3};
global small: float[4] = {0.0, 1.5};
fn helper(x: int) -> int { return x + big[x & 7]; }
fn main() -> int {
  var s: int = 0;
  for i = 0 to 9 { s = s + helper(i); }
  return s;
}|}

let digest_prog () = Mira.Lower.compile_source_exn digest_src

let map_global name f (p : Ir.program) =
  {
    p with
    Ir.globals =
      List.map (fun (g : Ir.global) -> if g.Ir.gname = name then f g else g)
        p.Ir.globals;
  }

let map_main f (p : Ir.program) =
  Ir.update_func p (f (Ir.find_func p p.Ir.main))

let with_init name f =
  map_global name (fun g ->
      let a = Array.copy g.Ir.ginit in
      { g with Ir.ginit = f a })

(* one edit per field the printer does not show, plus the global's name:
   each alone must move the digest *)
let sensitivity_cases =
  [
    ("nregs", map_main (fun f -> { f with Ir.nregs = f.Ir.nregs + 1 }));
    ("nlabels", map_main (fun f -> { f with Ir.nlabels = f.Ir.nlabels + 1 }));
    ("gelt", map_global "big" (fun g -> { g with Ir.gelt = Ir.EltInt32 }));
    ( "ginit value",
      with_init "big" (fun a ->
          a.(50) <- 7.0;
          a) );
    ( "ginit bit pattern (0.0 vs -0.0)",
      with_init "small" (fun a ->
          a.(0) <- -0.0;
          a) );
    ( "ginit bit pattern, memoized array",
      with_init "big" (fun a ->
          a.(99) <- -0.0;
          a) );
    ("ginit length", with_init "big" (fun a -> Array.sub a 0 99));
    ("global name", map_global "small" (fun g -> { g with Ir.gname = "tiny" }));
    ("main", fun p -> { p with Ir.main = "helper" });
  ]

let test_digest_sensitivity () =
  let p = digest_prog () in
  let d = Pctrie.digest p in
  List.iter
    (fun (field, edit) ->
      let p' = edit p in
      (* all but the global's name are invisible in print *)
      if field <> "global name" then
        Alcotest.(check string)
          (field ^ ": printed IR unchanged")
          (Ir.to_string p) (Ir.to_string p');
      if Pctrie.digest p' = d then Alcotest.failf "digest ignores %s" field)
    sensitivity_cases

let deep_copy (p : Ir.program) =
  {
    p with
    Ir.globals =
      List.map
        (fun (g : Ir.global) -> { g with Ir.ginit = Array.copy g.Ir.ginit })
        p.Ir.globals;
  }

(* the initializer sub-digest is memoized on physical identity: equal
   but distinct arrays digest alike, and a pass result that shares its
   arrays with an already-digested program digests like a fresh copy *)
let test_digest_memo () =
  let p = digest_prog () in
  let q = deep_copy p in
  List.iter2
    (fun (a : Ir.global) (b : Ir.global) ->
      Alcotest.(check bool) "arrays distinct" false (a.Ir.ginit == b.Ir.ginit))
    p.Ir.globals q.Ir.globals;
  Alcotest.(check string) "equal arrays, equal digests" (Pctrie.digest p)
    (Pctrie.digest q);
  let p1 = Pass.apply Pass.Const_prop p in
  List.iter2
    (fun (a : Ir.global) (b : Ir.global) ->
      Alcotest.(check bool) "pass shares initializers" true
        (a.Ir.ginit == b.Ir.ginit))
    p.Ir.globals p1.Ir.globals;
  Alcotest.(check string) "shared = deep copy" (Pctrie.digest (deep_copy p1))
    (Pctrie.digest p1);
  (* and the packing pass, which rebuilds globals, keeps the arrays *)
  let packed = Pass.apply Pass.Pack p in
  Alcotest.(check bool) "pack shares initializers" true
    (List.for_all2
       (fun (a : Ir.global) (b : Ir.global) -> a.Ir.ginit == b.Ir.ginit)
       p.Ir.globals packed.Ir.globals);
  Alcotest.(check string) "packed: shared = deep copy"
    (Pctrie.digest (deep_copy packed))
    (Pctrie.digest packed)

(* ------------------------------------------------------------------ *)
(* the key-version bump *)

(* The digest before its binary encoding ("mira-ir-digest/1" in
   retrospect): hex MD5 of the printed IR plus the printer-omitted
   state, each initializer formatted with "%h,".  Kept here only to
   write entries the way the previous version did. *)
let v1_digest (p : Ir.program) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Ir.to_string p);
  Buffer.add_string b "\x00main=";
  Buffer.add_string b p.Ir.main;
  List.iter
    (fun (g : Ir.global) ->
      Buffer.add_string b
        (Printf.sprintf "\x00%s:%s:" g.Ir.gname
           (match g.Ir.gelt with
            | Ir.EltInt -> "i"
            | Ir.EltInt32 -> "i32"
            | Ir.EltFloat -> "f"));
      Array.iter (fun v -> Buffer.add_string b (Printf.sprintf "%h," v)) g.Ir.ginit)
    p.Ir.globals;
  Ir.SMap.iter
    (fun name (f : Ir.func) ->
      Buffer.add_string b (Printf.sprintf "\x00%s=%d,%d" name f.Ir.nregs f.Ir.nlabels))
    p.Ir.funcs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Engine's key derivations, spelled out over a given program digest *)
let hex parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let fuel = Mach.Sim.default_fuel
let config_digest = Mach.Config.digest config

let eval_key ~prog_digest seq =
  hex
    [ prog_digest; Pass.sequence_to_string seq; config_digest;
      string_of_int fuel; Pass.version ]

let sim_key ~ir_digest = hex [ "sim"; ir_digest; config_digest; string_of_int fuel ]

let tmp_dir prefix =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* Entries written under version-1 keys are valid records that no
   version-2 lookup can reach: they miss, the engine measures afresh,
   and nothing is quarantined on reopen. *)
let test_version_bump_orphans () =
  let p = digest_prog () in
  let seq = Pass.[ Const_prop; Dce ] in
  let p' = Pass.apply_sequence seq p in
  let old_prog, old_ir = (v1_digest p, v1_digest p') in
  let eng0 = Engine.create ~share:false config in
  Alcotest.(check string) "key derivation spelled out right"
    (Engine.key eng0 p seq)
    (eval_key ~prog_digest:(Engine.ir_digest p) seq);
  Alcotest.(check bool) "version 2 moves the program digest" false
    (old_prog = Engine.ir_digest p);
  let r = Mach.Sim.run ~config ~fuel p' in
  let entry =
    Engine.Rcache.Measured
      { ir_digest = old_ir; cycles = r.Mach.Sim.cycles;
        code_size = Ir.program_size p'; counters = r.Mach.Sim.counters }
  in
  let rdir = tmp_dir "orphan-rc" and tdir = tmp_dir "orphan-ts" in
  Fun.protect
    ~finally:(fun () -> rm_rf rdir; rm_rf tdir)
    (fun () ->
      let rc = Engine.Rcache.open_dir rdir in
      Engine.Rcache.add rc (eval_key ~prog_digest:old_prog seq) entry;
      Engine.Rcache.add rc (sim_key ~ir_digest:old_ir) entry;
      Engine.Rcache.close rc;
      let ts = Engine.Tstore.open_dir tdir in
      Engine.Tstore.add ts ~ir_digest:old_ir ~fuel
        (Mach.Mtrace.generate_program ~fuel p');
      Engine.Tstore.close ts;
      (* Rcache: both old entries load, valid, and stay unreachable *)
      let rc = Engine.Rcache.open_dir rdir in
      Alcotest.(check int) "rcache: nothing quarantined" 0
        (Engine.Rcache.quarantined rc);
      Alcotest.(check int) "rcache: old entries still known" 2
        (Engine.Rcache.known rc);
      Alcotest.(check bool) "rcache: old key still served" true
        (Engine.Rcache.find rc (eval_key ~prog_digest:old_prog seq) <> None);
      let eng = Engine.create ~cache:rc ~share:true config in
      Alcotest.(check bool) "rcache: new key misses" true
        (Engine.Rcache.find rc (Engine.key eng p seq) = None);
      let o = Engine.eval eng p seq in
      let s = Engine.stats eng in
      Alcotest.(check bool) "re-measured, not served" false o.Engine.from_cache;
      Alcotest.(check int) "no cache hit" 0 s.Engine.hits;
      Alcotest.(check int) "no dedup onto the old sim entry" 0 s.Engine.dedup_hits;
      Alcotest.(check int) "one simulation" 1 s.Engine.sims;
      Alcotest.(check (option int)) "same measurement" (Some r.Mach.Sim.cycles)
        o.Engine.cycles;
      Engine.Rcache.close rc;
      (* Tstore: the old trace loads, valid, and a new-key lookup
         regenerates *)
      let ts = Engine.Tstore.open_dir tdir in
      Alcotest.(check int) "tstore: nothing quarantined" 0
        (Engine.Tstore.quarantined ts);
      Alcotest.(check int) "tstore: old entry still there" 1
        (Engine.Tstore.entries ts);
      Alcotest.(check bool) "tstore: old key still served" true
        (Engine.Tstore.mem ts ~ir_digest:old_ir ~fuel);
      let generated = ref 0 in
      let tc = Engine.Tcache.create ~store:ts () in
      ignore
        (Engine.Tcache.find_or_generate tc ~ir_digest:(Engine.ir_digest p')
           ~fuel (fun () ->
             incr generated;
             Mach.Mtrace.generate_program ~fuel p'));
      Alcotest.(check int) "tstore: new key regenerates" 1 !generated;
      Engine.Tstore.close ts)

let () =
  Alcotest.run "sharing"
    [
      ( "pctrie",
        [
          Alcotest.test_case "trie = direct compilation" `Quick
            test_trie_matches_direct;
          Alcotest.test_case "eviction is sound" `Quick
            test_trie_eviction_sound;
        ] );
      ( "digest",
        [
          Alcotest.test_case "every hidden field moves it" `Quick
            test_digest_sensitivity;
          Alcotest.test_case "initializer memo is transparent" `Quick
            test_digest_memo;
          Alcotest.test_case "version bump orphans old entries" `Quick
            test_version_bump_orphans;
        ] );
      ( "engine",
        [
          Alcotest.test_case "batch outcomes = no-share" `Quick
            test_share_outcomes_identical_batch;
          Alcotest.test_case "serial outcomes = no-share" `Quick
            test_share_outcomes_identical_serial;
          Alcotest.test_case "--no-share is the seed engine" `Quick
            test_no_share_is_seed_engine;
        ] );
    ]
