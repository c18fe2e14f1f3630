type query = {
  requesters : Ast.principal list;
  attributes : (string * string) list;
  values : string list;
}

type result = { level : int; value : string; trace : string list }

let special_attributes q =
  let n = List.length q.values in
  [
    ("_MIN_TRUST", List.nth q.values 0);
    ("_MAX_TRUST", List.nth q.values (n - 1));
    ("_VALUES", String.concat "," q.values);
    ("_ACTION_AUTHORIZERS", String.concat "," q.requesters);
  ]

let evaluate ~authored ~assertion ~fingerprint q =
  if q.values = [] then invalid_arg "Compliance.check: empty value set";
  let max_index = List.length q.values - 1 in
  let value_index v =
    let rec go i = function
      | [] -> None
      | x :: rest -> if String.equal x v then Some i else go (i + 1) rest
    in
    go 0 q.values
  in
  let trace = ref [] in
  let note fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
  let requesters = List.map Ast.normalize_principal q.requesters in
  let specials = special_attributes q in
  let memo : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec principal_value p =
    let p = Ast.normalize_principal p in
    if List.mem p requesters then max_index
    else
      match Hashtbl.find_opt memo p with
      | Some v -> v
      | None ->
        if Hashtbl.mem in_progress p then 0 (* delegation cycle: no additional authority *)
        else begin
          Hashtbl.replace in_progress p ();
          let v = List.fold_left (fun acc e -> max acc (assertion_value e)) 0 (authored p) in
          Hashtbl.remove in_progress p;
          Hashtbl.replace memo p v;
          v
        end
  and assertion_value e =
    let a = assertion e in
    let env name =
      match List.assoc_opt name a.Assertion.local_constants with
      | Some v -> Some v
      | None ->
        (match List.assoc_opt name q.attributes with
        | Some v -> Some v
        | None -> List.assoc_opt name specials)
    in
    let conditions_value =
      match a.Assertion.conditions with
      | None -> max_index
      | Some prog -> Expr.eval_program env ~value_index ~max_index prog
    in
    if conditions_value = 0 then 0
    else begin
      let licensees_value =
        match a.Assertion.licensees with
        | None -> 0
        | Some l -> licensees_value l
      in
      let v = min conditions_value licensees_value in
      if v > 0 then
        note "assertion %s (authorizer %s) contributes %S" (fingerprint e)
          (short_principal a.Assertion.authorizer)
          (List.nth q.values v);
      v
    end
  and licensees_value = function
    | Ast.Principal p -> principal_value p
    | Ast.And (a, b) -> min (licensees_value a) (licensees_value b)
    | Ast.Or (a, b) -> max (licensees_value a) (licensees_value b)
    | Ast.Threshold (k, members) ->
      let vs = List.map licensees_value members in
      if List.length vs < k then 0
      else begin
        let sorted = List.sort (fun a b -> compare b a) vs in
        List.nth sorted (k - 1)
      end
  and short_principal p =
    if String.length p > 24 then String.sub p 0 21 ^ "..." else p
  in
  let level = principal_value "POLICY" in
  { level; value = List.nth q.values level; trace = List.rev !trace }

let check ?(assume_verified = false) ~policy ~credentials q =
  let discarded = ref [] in
  (* A throwaway index of verified assertions by (normalized) authorizer. *)
  let by_authorizer : (string, Assertion.t list) Hashtbl.t = Hashtbl.create 16 in
  let add_assertion key a =
    let key = Ast.normalize_principal key in
    Hashtbl.replace by_authorizer key (a :: (try Hashtbl.find by_authorizer key with Not_found -> []))
  in
  List.iter (fun a -> add_assertion "POLICY" { a with Assertion.authorizer = "POLICY" }) policy;
  List.iter
    (fun a ->
      if assume_verified || Assertion.verify a then add_assertion a.Assertion.authorizer a
      else
        discarded :=
          Printf.sprintf "discarded credential %s: bad or missing signature" (Assertion.fingerprint a)
          :: !discarded)
    credentials;
  let r =
    evaluate
      ~authored:(fun p -> try Hashtbl.find by_authorizer p with Not_found -> [])
      ~assertion:Fun.id ~fingerprint:Assertion.fingerprint q
  in
  { r with trace = List.rev_append !discarded r.trace }
