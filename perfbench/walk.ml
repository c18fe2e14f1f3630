(* walk: one principal, closed loop, the fig-12 recursive wc over a
   kernel-shaped tree (Search.default_spec: 48 x 24 files, ~6 KB),
   through the compound pipeline with every cache on. Timed after one
   warm pass, over repeated identical passes. Loads the read/wire
   path (xdr, oncrpc, ESP, nfs client caches, compounds, ffs bcache
   hits); bypasses bignum (one attach) and cold keynote (memo hits). *)

open Util
module Backend = Bonnie.Backend
module Search = Bonnie.Search
module Deploy = Discfs.Deploy

type st = {
  b : Backend.t;
  d : Deploy.t;
  expect : Search.totals;
  reply_size : int;  (** median source-file size: the typical MULTI_READ reply *)
}

(* Preload the tree straight onto the server's filesystem, shaped like
   [Search.build] but filled from the benchmark's own generator, and
   return the wc totals the walk must reproduce. *)
let preload (b : Backend.t) ~seed =
  let spec = Search.default_spec in
  let rng = Rng.create seed in
  let fs = b.Backend.fs in
  let root = Ffs.Fs.root fs in
  let files = ref 0 and lines = ref 0 and words = ref 0 and bytes = ref 0 in
  let sizes = ref [] in
  for d = 0 to spec.Search.dirs - 1 do
    let dir = Ffs.Fs.mkdir fs root (Printf.sprintf "sys%02d" d) ~perms:0o755 ~uid:0 in
    for f = 0 to spec.Search.files_per_dir - 1 do
      let ext = if f mod 3 = 2 then "h" else "c" in
      let mean = spec.Search.mean_file_size in
      let size =
        let r = Rng.int rng 100 in
        if r < 70 then (mean / 2) + Rng.int rng mean
        else if r < 95 then mean + Rng.int rng (2 * mean)
        else (3 * mean) + Rng.int rng (4 * mean)
      in
      let text = source_text rng size in
      let ino =
        Ffs.Fs.create_file fs dir (Printf.sprintf "src_%02d_%02d.%s" d f ext) ~perms:0o644 ~uid:0
      in
      Ffs.Fs.write fs ino ~off:0 text;
      let l, w, c = wc text in
      incr files;
      lines := !lines + l;
      words := !words + w;
      bytes := !bytes + c;
      sizes := float_of_int c :: !sizes;
      if f = 0 then begin
        let mk = Ffs.Fs.create_file fs dir "Makefile" ~perms:0o644 ~uid:0 in
        Ffs.Fs.write fs mk ~off:0 "all:\n\tcc -c *.c\n"
      end
    done
  done;
  Simnet.Clock.reset b.Backend.clock;
  ( { Search.files = !files; lines = !lines; words = !words; bytes = !bytes },
    int_of_float (median (Array.of_list !sizes)) )

type pass = {
  totals : Search.totals;
  virt_s : float;
  wall_s : float;
  op_virt : float array;  (** per source file: virtual time since the previous one *)
  readdir_wall : float array;
  read_wall : float array;
}

(* One walk through [Search.run], with the backend's listing and
   whole-file read wrapped so each call is timed from outside. *)
let pass st =
  let clock = st.b.Backend.clock in
  let last = ref (Simnet.Clock.now clock) in
  let ops = ref [] and rd = ref [] and rw = ref [] in
  let b =
    {
      st.b with
      Backend.readdir =
        (fun h ->
          let r, dt = timed (fun () -> st.b.Backend.readdir h) in
          rd := dt :: !rd;
          r);
      read_whole =
        (fun h ->
          let r, dt = timed (fun () -> st.b.Backend.read_whole h) in
          rw := dt :: !rw;
          let now = Simnet.Clock.now clock in
          ops := (now -. !last) :: !ops;
          last := now;
          r);
    }
  in
  let (totals, virt_s), wall_s = timed (fun () -> Search.run b) in
  {
    totals;
    virt_s;
    wall_s;
    op_virt = Array.of_list (List.rev !ops);
    readdir_wall = Array.of_list !rd;
    read_wall = Array.of_list !rw;
  }

let setup ~seed ~tracing =
  let b =
    Backend.discfs ~tracing ~cache_blocks:4096 ~cache_size:2048 ~attr_cache:true ~attr_ttl:1e6
      ~name_ttl:1e6 ~compound:true ()
  in
  let d = Option.get (Backend.discfs_deploy b) in
  let expect, reply_size = preload b ~seed in
  let st = { b; d; expect; reply_size } in
  let warm = pass st in
  if warm.totals <> expect then failwith "walk: warm pass totals differ from the generated tree";
  st

let ok st p = p.totals = st.expect
let wall_rate st p = float_of_int st.expect.Search.files /. p.wall_s

let virt_of_pass st p =
  closed_loop ~ok:(if ok st p then 1.0 else 0.0) ~ops:p.totals.Search.files ~seconds:p.virt_s
    p.op_virt

let e2e ~seed ~seconds =
  let st, setup_s = setups ~n:3 (fun () -> setup ~seed ~tracing:false) in
  let a0 = allocated () in
  let t0 = wall () in
  let first = pass st in
  let rest = ref [] in
  while wall () -. t0 < seconds || List.length !rest < 2 do
    rest := pass st :: !rest
  done;
  let passes = first :: !rest in
  let alloc = allocated () -. a0 in
  let attempted = st.expect.Search.files * List.length passes in
  let bad = List.filter (fun p -> not (ok st p)) passes in
  let failed = st.expect.Search.files * List.length bad in
  {
    setup_s;
    wall_ops_per_s = median (Array.of_list (List.map (wall_rate st) passes));
    alloc_kb_per_op = alloc /. 1024.0 /. float_of_int attempted;
    heap_peak_mb = heap_peak_mb ();
    virt = virt_of_pass st first;
    attempted;
    failed;
    checks = [ ("walk: every pass's totals equal wc over the generated tree", bad = []) ];
  }

let traced ~seed =
  let plain = setup ~seed ~tracing:false in
  let p_plain = pass plain in
  let plain_passes = [| p_plain; pass plain; pass plain |] in
  let wall_plain = median (Array.map (fun p -> p.wall_s) plain_passes) in
  let st = setup ~seed ~tracing:true in
  let metrics = st.d.Deploy.metrics in
  Trace.Metrics.reset metrics;
  Trace.reset st.d.Deploy.trace;
  let c0 = Layers.counters st.d in
  let p = pass st in
  let c1 = Layers.counters st.d in
  let spans = Layers.spans metrics in
  let wall_traced = median [| p.wall_s; (pass st).wall_s; (pass st).wall_s |] in
  let creds = Keynote.Session.credentials (Discfs.Server.session plain.d.Deploy.server) in
  let principal =
    match creds with
    | { Keynote.Assertion.licensees = Some l; _ } :: _ -> List.hd (Keynote.Ast.licensees_principals l)
    | _ -> failwith "walk: no user credential in the store"
  in
  let ino = Ffs.Fs.resolve plain.d.Deploy.fs "/sys00/src_00_00.c" in
  {
    plain = virt_of_pass plain p_plain;
    traced = virt_of_pass st p;
    wall_plain;
    wall_traced;
    values =
      spans
      @ Layers.counter_deltas c0 c1 ~ops:p.totals.Search.files
      @ [
          ("wall_ops_per_s", median (Array.map (wall_rate plain) plain_passes));
          ("nfs.readdirplus.wall_us_p50", median p_plain.readdir_wall *. 1e6);
          ("nfs.multi_read.wall_us_p50", median p_plain.read_wall *. 1e6);
          ("ipsec.attach_ms", Layers.attach_ms plain.d);
        ]
      @ Layers.common plain.d ~principal ~ino ~msg_size:plain.reply_size;
    notes =
      [
        ("nfs.multi_read.wall_us_p50", "whole-file read through the client caches");
        ("ipsec.esp_seal_us", Printf.sprintf "at the median reply size, %d B" plain.reply_size);
      ];
    remarks = [];
    t_attempted = st.expect.Search.files;
    t_failed = (if ok st p then 0 else st.expect.Search.files);
    t_checks = [ ("walk: traced pass totals equal wc over the generated tree", ok st p) ];
  }
