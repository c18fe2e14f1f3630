(* A store entry: an admitted assertion with what admission computed
   once. [authorizer] and [licensees] are normalised principals; since
   {!Ast.normalize_principal} returns a canonical principal as is,
   they are the assertion's own strings, not copies. *)
type entry = {
  assertion : Assertion.t;
  fingerprint : string;
  authorizer : string;
  licensees : string list; (* distinct principals named in the licensees *)
  seq : int; (* admission order *)
}

type t = {
  values : string list;
  trace : Trace.t;
  mutable policy : Assertion.t list;
  by_fingerprint : (string, entry) Hashtbl.t; (* credentials *)
  by_authorizer : (string, entry list) Hashtbl.t; (* credentials, newest first *)
  by_licensee : (string, entry list) Hashtbl.t; (* credentials and policy, newest first *)
  mutable count : int;
  mutable next_seq : int;
}

let push tbl key e =
  Hashtbl.replace tbl key (e :: Option.value (Hashtbl.find_opt tbl key) ~default:[])

let entry t a ~fingerprint =
  let licensees =
    match a.Assertion.licensees with
    | None -> []
    | Some l ->
      List.sort_uniq String.compare (List.map Ast.normalize_principal (Ast.licensees_principals l))
  in
  let e =
    {
      assertion = a;
      fingerprint;
      authorizer = Ast.normalize_principal a.Assertion.authorizer;
      licensees;
      seq = t.next_seq;
    }
  in
  t.next_seq <- t.next_seq + 1;
  List.iter (fun p -> push t.by_licensee p e) licensees;
  e

(* Policy is indexed under the authorizer POLICY, as {!Compliance.check}
   rewrites it. No credential can share that authorizer (a credential
   must verify under a key), so policy and credentials never meet in
   one authorizer's list and one admission counter orders both. *)
let add_policy t a =
  t.policy <- t.policy @ [ a ];
  ignore
    (entry t { a with Assertion.authorizer = "POLICY" } ~fingerprint:(Assertion.fingerprint a))

let create ~values ?(policy = []) ?(trace = Trace.null) () =
  if values = [] then invalid_arg "Session.create: empty value set";
  let t =
    {
      values;
      trace;
      policy = [];
      by_fingerprint = Hashtbl.create 64;
      by_authorizer = Hashtbl.create 16;
      by_licensee = Hashtbl.create 64;
      count = 0;
      next_seq = 0;
    }
  in
  List.iter (add_policy t) policy;
  t

let add_credential t a =
  if not (Assertion.verify a) then Error "credential signature verification failed"
  else begin
    let fingerprint = Assertion.fingerprint a in
    if not (Hashtbl.mem t.by_fingerprint fingerprint) then begin
      let e = entry t a ~fingerprint in
      Hashtbl.replace t.by_fingerprint fingerprint e;
      push t.by_authorizer e.authorizer e;
      t.count <- t.count + 1
    end;
    Ok ()
  end

let add_credential_text t text =
  match Assertion.parse text with
  | a -> add_credential t a
  | exception Assertion.Parse_error msg -> Error ("parse error: " ^ msg)

(* Drop [gone] from all three indexes, filtering each touched list
   once. *)
let unlink t gone =
  let dead = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace dead e.seq ();
      Hashtbl.remove t.by_fingerprint e.fingerprint;
      t.count <- t.count - 1)
    gone;
  let prune tbl key =
    match List.filter (fun e -> not (Hashtbl.mem dead e.seq)) (Hashtbl.find tbl key) with
    | [] -> Hashtbl.remove tbl key
    | l -> Hashtbl.replace tbl key l
  in
  let keys f = List.sort_uniq String.compare (List.concat_map f gone) in
  List.iter (prune t.by_authorizer) (keys (fun e -> [ e.authorizer ]));
  List.iter (prune t.by_licensee) (keys (fun e -> e.licensees))

let remove_credential t ~fingerprint =
  match Hashtbl.find_opt t.by_fingerprint fingerprint with
  | Some e ->
    unlink t [ e ];
    true
  | None -> false

let remove_authored_by t principal =
  match Hashtbl.find_opt t.by_authorizer (Ast.normalize_principal principal) with
  | Some gone ->
    unlink t gone;
    List.length gone
  | None -> 0

let find_credential t ~fingerprint =
  Option.map (fun e -> e.assertion) (Hashtbl.find_opt t.by_fingerprint fingerprint)

let credentials t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.by_fingerprint []
  |> List.sort (fun a b -> Int.compare a.seq b.seq)
  |> List.map (fun e -> e.assertion)

let count t = t.count
let policy t = t.policy
let values t = t.values

(* The assertions whose licensees reach back to a requester: the
   backward closure over the licensee index, grouped by authorizer,
   newest first within each (the order {!Compliance.check} tries
   them). Every other assertion scores 0 and adds no trace note, so
   evaluating only these is exact. *)
let reaching t requesters =
  let groups : (string, entry list) Hashtbl.t = Hashtbl.create 8 in
  let reached : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let taken : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec visit p =
    if not (Hashtbl.mem reached p) then begin
      Hashtbl.replace reached p ();
      List.iter
        (fun e ->
          if not (Hashtbl.mem taken e.seq) then begin
            Hashtbl.replace taken e.seq ();
            push groups e.authorizer e;
            visit e.authorizer
          end)
        (Option.value (Hashtbl.find_opt t.by_licensee p) ~default:[])
    end
  in
  List.iter (fun p -> visit (Ast.normalize_principal p)) requesters;
  Hashtbl.filter_map_inplace
    (fun _ l -> Some (List.sort (fun a b -> Int.compare b.seq a.seq) l))
    groups;
  groups

let query t ~requesters ~attributes =
  (* Credentials were signature-checked when admitted. *)
  Trace.span t.trace "keynote.compliance"
    ~attrs:[ ("credentials", string_of_int t.count) ]
    (fun () ->
      let groups = reaching t requesters in
      Compliance.evaluate
        ~authored:(fun p -> Option.value (Hashtbl.find_opt groups p) ~default:[])
        ~assertion:(fun e -> e.assertion)
        ~fingerprint:(fun e -> e.fingerprint)
        { Compliance.requesters; attributes; values = t.values })
