"""Test helpers with no caller in the package: a client that plays back canned LLM replies,
a prompt bundle whose text is cut, the prediction-reply reader that found the reply block with a
regex, the shape check of criterion 8's AUC-by-K series, AUC by a
loop that walks the sorted scores' ties, the
path pair pool as string triples with its conversions to and from ``retrieval.pair_keys``, the
retained pool as id counts with its conversions to and from student-table rows,
the path formulas on one walk of node indices, peer retrieval one target at a time, Top-K
selection one group at a time, a scored group built from given dimensions, the LLM scorer as
it read replies, the scored-walk writer that dumped each score column with ``json.dumps``, the
mock scorer's block reader decoded for one prompt, the mock's scores of a path written into a
prompt with no graph behind it, the breadth-first search that graph hop tables are held to,
the ``Interaction`` record of one decoded row, a columnar dataset built from such records with its rows decoded back, and the
row-object CSV reader that the columnar reader is held to."""

import csv
import json
import math
from collections import Counter
from pathlib import Path
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

from hisekt.config import ABLATIONS
from hisekt.dataset import (KC_DELIMITER, MIN_QUESTION_ANSWERS, MIN_STUDENT_INTERACTIONS, REQUIRED_COLUMNS,
                            SPLIT_LABELS, Dataset)
from hisekt.errors import EmptyDatasetError, IngestError, TransportError, UndefinedMetricError
from hisekt.llm import LlmClient
from hisekt.mrhin import PAD, UNREACHABLE
from hisekt.pathscore import (LEVEL_CATEGORIES, MAX_DIMENSION_SCORE, SCORE_FIELDS, SCORING_PROMPT_HEADER, ScoredGroup,
                              _read_scoring_prompts, mock_score_replies, render_scoring_prompt, score_llm)
from hisekt.predict import MASK_SIMU, REPLY_CLOSE, REPLY_OPEN, Prediction, PromptBundle, count_sentences
from hisekt.retrieval import DEFAULT_SCALING, CandidateSet, distances, encode_many, pair_keys, student_tables
from hisekt.seeding import derive_rng, derive_seed


def scripted_client(replies, **kwargs):
    """A mock-backend client whose transport plays back ``replies`` in order."""
    queue = list(replies)

    def transport(prompt):
        del prompt
        if not queue:
            raise TransportError("scripted client exhausted")
        return queue.pop(0)

    return LlmClient(backend="mock", transport=transport, **kwargs)


class CutPromptBundle(PromptBundle):
    """A prediction prompt bundle whose text ends where its target question block would start."""

    @property
    def text(self) -> str:
        full = super().text
        return full[: full.index("=== TARGET QUESTION ===")]


_REFERENCE_REPLY_BLOCK = re.compile(re.escape(REPLY_OPEN) + r"\s*(.*?)\s*" + re.escape(REPLY_CLOSE), re.S)


def reference_parse_reply(reply):
    """``predict._parse_reply`` as it found the reply block with a lazy regex under ``re.S``
    (without its clamp warning): the same ``Prediction``, or a ValueError with the same message."""
    block = _REFERENCE_REPLY_BLOCK.search(reply)
    if not block:
        raise ValueError("no prediction block in reply")
    body = block.group(1)
    outcome_m = re.search(r"^outcome:\s*(correct|wrong)\s*$", body, re.M)
    confidence_m = re.search(r"^confidence:\s*([-+0-9.eE]+)\s*$", body, re.M)
    report_m = re.search(r"^report:\s*(.+)$", body, re.M | re.S)
    if not (outcome_m and confidence_m and report_m):
        raise ValueError("prediction block is missing fields")
    confidence = min(max(float(confidence_m.group(1)), 0.0), 1.0)
    report = report_m.group(1).strip()
    if count_sentences(report) != 3:
        raise ValueError(f"report must have exactly 3 sentences, got {count_sentences(report)}")
    return Prediction.build(outcome_m.group(1), confidence, report)


def reference_auc(labels, scores):
    """``evaluation.auc`` as it walked the sorted scores in Python, giving each run of tied scores
    from sorted position ``i`` to ``j`` the midrank ``(i + j) / 2 + 1``."""
    if len(labels) != len(scores):
        raise ValueError("labels and scores must have equal length")
    n = len(labels)
    n_pos = sum(1 for y in labels if y == 1)
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    order = sorted(range(n), key=lambda i: scores[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    rank_sum_pos = sum(r for r, y in zip(ranks, labels) if y == 1)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def unimodal_or_plateau(values, tol=0.01):
    """True if the series rises (within tol) to some peak and never rises after it."""
    n = len(values)
    for peak in range(n):
        rising = all(values[i + 1] >= values[i] - tol for i in range(peak))
        falling = all(values[i + 1] <= values[i] + tol for i in range(peak, n - 1))
        if rising and falling:
            return True
    return False


def reference_path_pair_pool(counts, d):
    """The path pair pool as a set of ``(answerer, candidate, f)`` string triples, built as
    ``evaluation._path_pair_pool`` was before it made int keys: each train answerer of each target
    question against each student retained for it but itself, with that student's count."""
    answerers = {}
    for i in decode_rows(d, d.iter_split("train")):
        answerers.setdefault(i.question_id, set()).add(i.student_id)
    pool = set()
    for qid, per_student in counts.items():
        for u in answerers.get(qid, ()):
            for sid, f in per_student.items():
                if sid != u:
                    pool.add((u, sid, f))
    return pool


def retained_rows(counts, d):
    """The retained pool as ``evaluation._retained`` gives it, ``{question: (rows, counts)}``, of
    ``{question: {student id: count}}``: each question's students as ascending student-table rows."""
    positions = student_tables(d).positions
    out = {}
    for qid, per_student in counts.items():
        ids = sorted(per_student)
        out[qid] = positions(ids), np.array([per_student[sid] for sid in ids], dtype=np.int64)
    return out


def retained_ids(retained, d):
    """``{question: {student id: count}}`` of the retained pool as ``evaluation._retained`` gives it."""
    students = student_tables(d).students
    return {qid: {students[row]: f for row, f in zip(rows.tolist(), counts.tolist())}
            for qid, (rows, counts) in retained.items()}


def keys_of_triples(triples, d):
    """``(keys, base)``: the distinct ``(u, s, f)`` string triples as ascending ``pair_keys``."""
    t = student_tables(d)
    base = 1 + max(f for _, _, f in triples)
    keys = pair_keys(t.positions(u for u, _, _ in triples), t.positions(s for _, s, _ in triples),
                     [f for _, _, f in triples], len(t.students), base)
    return np.unique(keys), base


def triples_of_keys(keys, base, d):
    """The ``(u, s, f)`` string triples that ``pair_keys`` ``keys`` stand for, in key order."""
    students = student_tables(d).students
    pair, f = np.divmod(np.asarray(keys), base)
    u, s = np.divmod(pair, len(students))
    return [(students[a], students[b], c) for a, b, c in zip(u.tolist(), s.tolist(), f.tolist())]


_LEVEL_INDEX = {tuple(category.split("_")): i for i, category in enumerate(LEVEL_CATEGORIES)}


def reference_score_walk(walk, nodes, kinds, hops, covers, kstar):
    """The four dimensions and the total of one walk, the reference both of the package's forms
    of the formulas (``pathscore.score_all`` and the mock's block scorer) are held to.

    ``walk`` holds node indices, ``walk[0]`` being the target question.  Node ``x`` is
    ``nodes[x]`` of kind ``kinds[x]``, ``hops[x]`` hops from the target question; ``covers[x]``
    tells whether it is a question covering the target KC, whose index is ``kstar`` (``None``
    if not a node here).  Indices follow sorted (kind, id) order, so the questions are summed
    in sorted id order.
    """
    length = len(walk) - 1
    questions = sorted({x for x in walk if kinds[x] == "Q"})

    # centrality: 5 * (1 - mean over distinct questions of min(hops, L) / L), clamped; the
    # terms are added left to right, which built-in sum() does not do from Python 3.12 on
    if length == 0:
        centrality = MAX_DIMENSION_SCORE
    else:
        spread = 0.0
        for q in questions:
            spread += min(hops[q], length) / length
        raw = 1.0 - spread / len(questions)
        centrality = MAX_DIMENSION_SCORE * min(max(raw, 0.0), 1.0)

    # kc_relevance: share of the distinct questions that cover the target KC
    kc_relevance = MAX_DIMENSION_SCORE * sum(1 for q in questions if covers[q]) / len(questions)

    # informativeness: distinct share of U/Q/K occurrences, repeat visits to q0 and K* dropped
    counted = [x for x in walk if kinds[x] in ("U", "Q", "K")]
    repeats = walk.count(walk[0]) - 1 + max(walk.count(kstar) - 1, 0)
    informativeness = MAX_DIMENSION_SCORE * len(set(counted)) / (len(counted) - repeats)

    # diversity: normalized entropy of A/D level occurrences over the six categories
    counts = [0] * len(LEVEL_CATEGORIES)
    for level in [nodes[x] for x in walk if kinds[x] in ("A", "D")]:
        counts[_LEVEL_INDEX[level]] += 1
    total = sum(counts)
    entropy = 0.0
    for c in counts:
        if c:
            freq = c / total
            entropy -= freq * math.log(freq)
    diversity = MAX_DIMENSION_SCORE * entropy / math.log(len(LEVEL_CATEGORIES)) if total else 0.0

    return (centrality, kc_relevance, informativeness, diversity,
            centrality + kc_relevance + informativeness + diversity)


def candidates_of(counts, u_target, target_question):
    """The students counted on a target question's retained walks, minus the target, with their
    counts: one target's candidate set, as the per-target loop built it."""
    return CandidateSet(u_target, target_question, {sid: f for sid, f in counts.items() if sid != u_target})


def reference_distances(cands, sm, m, d, c=DEFAULT_SCALING):
    """One target's candidate ids, sorted, and their distances from it: the block ``top_s``
    encoded and ranked before the targets of a question were ranked together."""
    ids = sorted(cands.candidates)
    t = student_tables(d)
    u = np.full(len(ids), t.positions([cands.target_student])[0])
    f = [cands.candidates[sid] for sid in ids]
    return ids, distances(encode_many(u, t.positions(ids), f, m, d, c), sm)


def reference_top_s(cands, sm, m, d, s, mode="similar", c=DEFAULT_SCALING, seed=0):
    """``retrieval.top_s`` as it was before the targets of a question were ranked together."""
    if s < 1:
        raise ValueError("s must be >= 1")
    ids = sorted(cands.candidates)
    if not ids:
        return []
    if mode == "similar":
        ids, dist = reference_distances(cands, sm, m, d, c)
        # ids are sorted and the sort is stable: order by (distance, id)
        return [ids[i] for i in np.argsort(dist, kind="stable")[:s]]
    if mode == "random":
        rng = derive_rng(seed, "top_s", cands.target_student, cands.target_question)
        if s >= len(ids):
            return ids
        return rng.sample(ids, s)
    raise ValueError(f"unknown retrieval mode {mode!r}")


def reference_peers(ctx, cfg, run_seed, variant):
    """``evaluation._peers`` as it was before the targets of a question were ranked together: one
    ``reference_top_s`` call per test target, in test order."""
    _, peer_mode, mask = ABLATIONS[variant]
    tests = ctx.test_targets(cfg)
    if MASK_SIMU in mask:
        return {key: [] for key in tests}
    d, m = ctx.get("dataset", cfg), ctx.get("irt", cfg)
    counts = retained_ids(ctx.get("retained", cfg, run_seed, variant), d)
    sim = ctx.get("similarity", cfg, run_seed, variant) if peer_mode == "similar" else None
    peers = {}
    for u, qid, timestamp in tests:
        cands = candidates_of(counts.get(qid, {}), u, qid)
        seed = derive_seed(run_seed, "tops", u, qid, timestamp)
        peers[u, qid, timestamp] = reference_top_s(cands, sim, m, d, cfg.top_s, mode=peer_mode, c=cfg.c, seed=seed)
    return peers


def reference_select_top_k(scored, k, mode="top", seed=0):
    """The row indices ``pathscore.select_top_k`` kept of one scored group, in selection order, as it
    ranked each group alone before every group of a stage was ranked in one pass: a lexsort of the
    group's (tie keys, totals), or a stable argsort of its tie keys and a seeded draw."""
    totals, keys = scored.scores[:, 4], scored.walks.tie_keys
    if mode == "top":
        return np.lexsort((keys, -totals))[:k]
    if mode == "lowest":
        return np.lexsort((keys, totals))[:k]
    if mode == "random":
        kept = np.argsort(keys, kind="stable")
        return kept if k >= len(kept) else kept[derive_rng(seed, "select_top_k").sample(range(len(kept)), k)]
    raise ValueError(f"unknown selection mode {mode!r}")


def scored_group(walks, dimensions, backend="formula"):
    """The scored group of ``walks`` whose row i holds the four scores ``dimensions[i]`` and their
    total, summed left to right as the scorers sum it."""
    table = [(c, r, i, dv, c + r + i + dv) for c, r, i, dv in dimensions]
    return ScoredGroup(walks, np.array(table, dtype=np.float64).reshape(len(table), 5), backend)


_ANY_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def reference_score_llm(walks, i, client):
    """The four scores of walk ``i`` of a group via the LLM backend, read as ``pathscore.score_llm``
    read replies before it returned rows: the first four numbers anywhere in the reply, clamped
    to [0, 5]."""
    prompt = render_scoring_prompt(walks, i)
    for _ in range(max(client.max_retries, 1)):
        numbers = _ANY_NUMBER.findall(client.complete(prompt))
        if len(numbers) >= 4:
            return tuple(min(max(float(raw), 0.0), MAX_DIMENSION_SCORE) for raw in numbers[:4])
    raise AssertionError("no parsable scores")


def reference_write_scored(grouped, path):
    """``pathscore.write_scored`` one line at a time: by target question, then template, then the
    group's rows in row order, each walk's backend, five scores and tie key written by
    ``json.dumps(sort_keys=True)``; returns the number of walks."""
    lines = []
    for qid in sorted(grouped):
        for name in sorted(grouped[qid]):
            group = grouped[qid][name]
            for i in range(len(group)):
                record = dict(zip(SCORE_FIELDS, group.scores[i].tolist()), backend=group.backend,
                              tie_key=int(group.walks.tie_keys[i]))
                lines.append(json.dumps(record, sort_keys=True) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")
    return len(lines)


def read_scoring_prompt(text, memo=None):
    """The path, target KC, and each path question's hop count and KC set of one scoring prompt,
    decoded from the row ``pathscore._read_scoring_prompts`` reads for a block of one."""
    lines, rows, [target_kc] = _read_scoring_prompts([text], memo)
    read = [lines[x] for x in rows[0].tolist() if x != PAD]
    return ([node for node, _, _ in read], target_kc,
            {node[1]: hops for node, hops, _ in read if hops is not None},
            {node[1]: kcs for node, _, kcs in read if kcs is not None})


def path_prompt(path, target_kc, hop_of, kc_of):
    """A scoring prompt laid out as rendered for a path of ``(kind, id)`` nodes with no graph behind
    it: each question line shows its hop count and KC set from ``hop_of`` and ``kc_of`` (0 hops and
    no KC if absent), and every question and student a Medium level."""
    def line(kind, node_id):
        if kind == "Q":
            kcs = ";".join(sorted(kc_of.get(node_id, ())))
            return f"Q:{node_id} | kcs: {kcs} | difficulty_level: Medium | hops_from_target: {hop_of.get(node_id, 0)}"
        if kind == "U":
            return f"U:{node_id} | ability_level: Medium"
        return f"{kind}:{node_id}"

    lines = "\n".join(f"  {n}. {line(*node)}" for n, node in enumerate(path, 1))
    return f"{SCORING_PROMPT_HEADER}\ntarget_question: {path[0][1]}\ntarget_kc: {target_kc}\npath:\n{lines}\n\nrubric"


def mock_path_score(path, target_kc, hop_of, kc_of):
    """The mock scorer's four dimensions and their total, summed left to right, for a path written
    into a prompt by :func:`path_prompt`."""
    [reply] = mock_score_replies([path_prompt(path, target_kc, hop_of, kc_of)])
    c, r, i, dv = map(float, reply[1:-1].split(", "))
    return c, r, i, dv, c + r + i + dv


def score_one(walks, i, client):
    """Walk ``i`` of a group scored alone through ``pathscore.score_llm``: its row of five floats."""
    [scored] = score_llm([walks.take(np.array([i]))], client)
    return tuple(scored.scores[0].tolist())


def hops_from(g, source):
    """Shortest hop count from node ``source`` to every node of ``g``, by node int, ``UNREACHABLE``
    where no path leads: one plain breadth-first search over ``g.neighbors``, the reference that
    ``Mrhin.hops`` is held to."""
    found = [UNREACHABLE] * len(g.node_ids)
    found[g.index(source)] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        depth = found[g.index(node)] + 1
        for nbr in g.neighbors(node):
            if found[g.index(nbr)] == UNREACHABLE:
                found[g.index(nbr)] = depth
                queue.append(nbr)
    return tuple(found)


@dataclass(frozen=True)
class Interaction:
    """One dataset row, decoded: a student answered a question tagged with KCs at a time."""

    student_id: str
    question_id: str
    kc_ids: frozenset[str]
    correct: bool
    timestamp: int


def decode_rows(d, index):
    """The listed rows of a dataset as ``Interaction`` records."""
    kc_sets = list(map(frozenset, d.kc_set_ids))
    columns = (d.student, d.question, d.kc_set, d.correct, d.timestamp)
    return [Interaction(d.students()[s], d.questions()[q], kc_sets[k], bool(c), t)
            for s, q, k, c, t in zip(*(column[index].tolist() for column in columns))]


def dataset_of(rows, splits=None, dropped_rows=0, duplicate_rows=0):
    """The columnar dataset of ``Interaction`` records, with their split labels if given, its rows
    put in (student, timestamp, question) order."""
    order = sorted(range(len(rows)), key=lambda i: (rows[i].student_id, rows[i].timestamp, rows[i].question_id))
    rows = [rows[i] for i in order]
    students, questions = ({x: j for j, x in enumerate(sorted(ids))} for ids in
                           ({i.student_id for i in rows}, {i.question_id for i in rows}))
    kcs = {kc: j for j, kc in enumerate(sorted({kc for i in rows for kc in i.kc_ids}))}
    set_of = {i.kc_ids: tuple(sorted(kcs[kc] for kc in i.kc_ids)) for i in rows}
    kc_sets = {kc_set: j for j, kc_set in enumerate(sorted(set(set_of.values())))}
    return Dataset(list(students), list(questions), list(kcs), list(kc_sets), [students[i.student_id] for i in rows],
                   [questions[i.question_id] for i in rows], [kc_sets[set_of[i.kc_ids]] for i in rows],
                   [i.correct for i in rows], [i.timestamp for i in rows],
                   None if splits is None else [SPLIT_LABELS.index(splits[i]) for i in order], dropped_rows, duplicate_rows)


def interactions(d):
    """Every row of a dataset as an ``Interaction``, in row order."""
    return tuple(decode_rows(d, range(len(d))))


def split_labels(d):
    """Every row's split label, in row order; KeyError on a code outside ``SPLIT_LABELS``."""
    return tuple(map(dict(enumerate(SPLIT_LABELS)).__getitem__, d.splits.tolist()))


def _reference_parse_row(row, line_no):
    """Parse one CSV row; None means the row lacks a required field and is dropped."""
    values = {}
    for col in REQUIRED_COLUMNS:
        raw = row.get(col)
        if raw is None or not raw.strip():
            return None
        values[col] = raw.strip()
    kc_ids = frozenset(k.strip() for k in values["kc_ids"].split(KC_DELIMITER) if k.strip())
    if not kc_ids:
        return None
    if values["correct"] not in ("0", "1"):
        raise IngestError(f"row {line_no}: correct must be 0 or 1, got {values['correct']!r}")
    try:
        timestamp = int(values["timestamp"])
    except ValueError:
        raise IngestError(f"row {line_no}: timestamp is not an integer: {values['timestamp']!r}")
    return Interaction(values["student_id"], values["question_id"], kc_ids, values["correct"] == "1", timestamp)


def _reference_filter_fixed_point(rows):
    """Drop sparse students/questions until both minimum-count rules hold."""
    current = rows
    while True:
        student_counts = Counter(i.student_id for i in current)
        keep_students = {s for s, c in student_counts.items() if c >= MIN_STUDENT_INTERACTIONS}
        question_counts = Counter(i.question_id for i in current if i.student_id in keep_students)
        keep_questions = {q for q, c in question_counts.items() if c >= MIN_QUESTION_ANSWERS}
        pruned = [i for i in current if i.student_id in keep_students and i.question_id in keep_questions]
        if len(pruned) == len(current):
            return pruned
        current = pruned


def reference_ingest(source):
    """``dataset.ingest`` as the row-object reader did it: ``csv.DictReader`` records numbered by
    count, one ``Interaction`` per row, the first of a repeated (student, question, timestamp)
    triple kept whatever the repeat holds."""
    if isinstance(source, (str, Path)):
        with Path(source).open("r", encoding="utf-8", newline="") as handle:
            return reference_ingest(handle)
    parsed, dropped, duplicates, seen = [], 0, 0, set()
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise IngestError("row 1: empty input, header row required")
    missing_cols = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing_cols:
        raise IngestError(f"row 1: header is missing columns {missing_cols}")
    for line_no, row in enumerate(reader, start=2):
        interaction = _reference_parse_row(row, line_no)
        if interaction is None:
            dropped += 1
            continue
        key = (interaction.student_id, interaction.question_id, interaction.timestamp)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        parsed.append(interaction)
    kept = _reference_filter_fixed_point(parsed)
    if not kept:
        raise EmptyDatasetError("no interactions survive the minimum-count filters")
    return dataset_of(kept, dropped_rows=dropped, duplicate_rows=duplicates)
