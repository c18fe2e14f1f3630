(* The DisCFS benchmark: three workloads, one command.

     main.exe --workload walk|ingest|crowd --seed N --seconds S --trace 0|1

   With --trace 0 it runs the workload untraced and prints the
   end-to-end metrics; with --trace 1 it runs the workload's fixed
   work untraced and traced (Deploy.make ~tracing:true; for crowd, a
   serial replay of its mix, see Crowd.traced), checks that the
   virtual figures agree exactly, and prints the per-layer metrics,
   each tagged with the end-to-end metric it should move.
   The last line of output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 0
   only when every correctness check passed. *)

open Util

(* name, unit, what it should move. Every workload reports every
   metric; a layer a workload does not exercise reads 0, marked n/a. *)
let per_layer =
  [
    ("wall_ops_per_s", "1/s", "the real-time end-to-end figure itself, ungated (see README)");
    ("bignum.modexp_ms", "ms", "crowd/setup_s");
    ("dcrypto.keygen_ms", "ms", "crowd/setup_s");
    ("dcrypto.dsa_sign_ms", "ms", "crowd/setup_s ingest/wall_ops_per_s");
    ("dcrypto.dsa_verify_ms", "ms", "crowd/setup_s");
    ("ipsec.attach_ms", "ms", "crowd/setup_s");
    ("discfs.submit_ms", "ms", "crowd/setup_s");
    ("discfs.submit_growth", "ratio", "crowd/setup_s [growth: 1.0 = flat]");
    ("discfs.create_ms", "ms", "ingest/wall_ops_per_s");
    ("discfs.create_growth", "ratio", "ingest/wall_ops_per_s [growth: 1.0 = flat]");
    ("dcrypto.sha1_mb_s", "MB/s", "ingest/wall_ops_per_s crowd/wall_ops_per_s");
    ("keynote.query_us", "us", "ingest/wall_ops_per_s crowd/wall_ops_per_s");
    ("keynote.cold_evals_per_op", "count", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("discfs.policy_cache.hit_ratio", "ratio", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("ipsec.esp_seal_us", "us", "walk/wall_ops_per_s ingest/wall_ops_per_s");
    ("ipsec.esp_open_us", "us", "walk/wall_ops_per_s");
    ("dcrypto.chacha20_mb_s", "MB/s", "walk/wall_ops_per_s walk/alloc_kb_per_op");
    ("xdr.virt_self_s", "s", "walk/virt_p50_ms");
    ("oncrpc.virt_self_s", "s", "walk/virt_p50_ms");
    ("ipsec.esp.virt_self_s", "s", "walk/virt_p50_ms");
    ("oncrpc.calls_per_op", "count", "walk/wall_ops_per_s walk/alloc_kb_per_op");
    ("nfs.readdirplus.wall_us_p50", "us", "walk/wall_ops_per_s");
    ("nfs.multi_read.wall_us_p50", "us", "walk/wall_ops_per_s");
    ("nfs.write.wall_us_p50", "us", "ingest/wall_ops_per_s crowd/wall_ops_per_s");
    ("nfs.getattr.wall_us_p50", "us", "crowd/wall_ops_per_s");
    ("nfs.read.wall_us_p50", "us", "crowd/wall_ops_per_s");
    ("nfs.attr_cache.hit_ratio", "ratio", "walk/virt_ops_per_s");
    ("nfs.name_cache.hit_ratio", "ratio", "walk/virt_ops_per_s");
    ("ffs.bcache.hit_ratio", "ratio", "walk/virt_ops_per_s ingest/virt_p99_ms");
    ("ffs.disk_reads", "count", "walk/virt_ops_per_s ingest/virt_p99_ms");
    ("ffs.disk_writes", "count", "ingest/virt_p99_ms");
    ("ffs.disk.virt_self_s", "s", "walk/virt_ops_per_s ingest/virt_p99_ms");
    ("oncrpc.queue.wait_ms_p99", "ms", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("oncrpc.queue.service_ms_p50", "ms", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("oncrpc.queue.peak", "count", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("oncrpc.queue.rejects", "count", "crowd/virt_p99_ms crowd/knee_ops_s");
    ("oncrpc.retransmits", "count", "crowd/virt_p99_ms crowd/wall_ops_per_s");
    ("simnet.sched.events", "count", "crowd/wall_ops_per_s");
    ("simnet.sched.wall_us_per_event", "us", "crowd/wall_ops_per_s");
    ("crowd.rung_wall_growth", "ratio", "crowd/wall_ops_per_s [growth: 1.0 = flat]");
    ("trace.overhead_ratio", "ratio", "nothing (reported only)");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload walk|ingest|crowd --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: t :: rest -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | ("walk" | "ingest" | "crowd"), Some seed, Some seconds, Some trace when seconds > 0.0 ->
    (!workload, seed, seconds, trace)
  | _ -> usage ()

let json_metric (name, value, unit_) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_

let finish ~checks ~attempted ~failed metrics =
  List.iter (fun (what, ok) -> Printf.printf "  check %-4s %s\n" (if ok then "ok" else "FAIL") what) checks;
  let correct = List.for_all snd checks in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map json_metric metrics));
  exit (if correct then 0 else 1)

let end_to_end workload ~seed ~seconds =
  let r =
    match workload with
    | "walk" -> Walk.e2e ~seed ~seconds
    | "ingest" -> Ingest.e2e ~seed ~seconds
    | _ -> Crowd.e2e ~seed ~seconds
  in
  let v = r.virt in
  let metrics =
    [
      ("setup_s", r.setup_s, "s");
      ("alloc_kb_per_op", r.alloc_kb_per_op, "KB");
      ("heap_peak_mb", r.heap_peak_mb, "MB");
      ("virt_ops_per_s", v.v_ops_per_s, "1/s");
      ("virt_p50_ms", v.v_p50_ms, "ms");
      ("virt_p99_ms", v.v_p99_ms, "ms");
      ("knee_ops_s", v.v_knee_ops_s, "1/s");
      ("ok_ratio", v.v_ok_ratio, "ratio");
    ]
  in
  Printf.printf "perfbench %s: seed %d, %.0f s window, %d ops attempted, %d failed\n" workload seed
    seconds r.attempted r.failed;
  List.iter (fun (n, x, u) -> Printf.printf "  %-16s %14.4f %s\n" n x u) metrics;
  Printf.printf "  %-16s %14.4f 1/s (not in the JSON: ungated, see README)\n" "wall_ops_per_s"
    r.wall_ops_per_s;
  Printf.printf "  (virtual percentiles over %d samples)\n" v.v_samples;
  finish ~checks:r.checks ~attempted:r.attempted ~failed:r.failed metrics

let layered workload ~seed =
  let r =
    match workload with
    | "walk" -> Walk.traced ~seed
    | "ingest" -> Ingest.traced ~seed
    | _ -> Crowd.traced ~seed
  in
  let values = ("trace.overhead_ratio", r.wall_traced /. r.wall_plain) :: r.values in
  Printf.printf "perfbench %s (traced): seed %d\n" workload seed;
  Printf.printf "  virtual figures untraced: %s\n  virtual figures traced:   %s\n"
    (virt_fingerprint r.plain) (virt_fingerprint r.traced);
  List.iter (Printf.printf "  note: %s\n") r.remarks;
  let metrics =
    List.map
      (fun (name, unit_, moves) ->
        let value, note =
          match List.assoc_opt name values with
          | Some x -> (x, Option.value (List.assoc_opt name r.notes) ~default:"")
          | None -> (0.0, "n/a: not exercised by " ^ workload)
        in
        Printf.printf "  %-32s %14.4f %-6s moves %s%s\n" name value unit_ moves
          (if note = "" then "" else "  (" ^ note ^ ")");
        (name, value, unit_))
      per_layer
  in
  let identical = String.equal (virt_fingerprint r.plain) (virt_fingerprint r.traced) in
  finish
    ~checks:(("tracing leaves every virtual end-to-end figure byte-identical", identical) :: r.t_checks)
    ~attempted:r.t_attempted ~failed:r.t_failed metrics

let () =
  let workload, seed, seconds, trace = args () in
  if trace then layered workload ~seed else end_to_end workload ~seed ~seconds
