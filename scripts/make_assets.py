#!/usr/bin/env python3
"""Regenerate the bundled data files from their sources.

Inputs (committed, hand-curated):
    src/pinasr/data/lexicon.tsv     character -> weighted tonal readings
    the sentence banks below        base corpus sentences and clause bank

Outputs (committed, reproducible):
    src/pinasr/data/syllables.txt       tonal unit inventory
    src/pinasr/data/corpus_train.txt    LM training sentences
    src/pinasr/data/corpus_heldout.txt  evaluation sentences (disjoint)
    src/pinasr/data/corpus_toy20.txt    tiny corpus for ambiguity stats
    src/pinasr/data/manifest.tsv        sha256 + record count per file

Inventory rule: every segment of the base syllabary carries tones 1-4;
tone 5 (neutral) exists only where the lexicon attests it. The lexicon is
loaded with the package's own loader against every segment in tones 1-5,
so the script fails loudly, naming the line, if a reading falls outside the
syllabary or a weight is not positive and finite; it also fails if a corpus
sentence uses a character the lexicon does not cover.
"""

import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pinasr.pinyin import PronunciationLexicon, SyllableInventory

DATA = Path(__file__).resolve().parent.parent / "src" / "pinasr" / "data"

SEED = 20240901

# Base syllabary: toneless segments, grouped by onset ('' = zero onset).
SEGMENTS = """
a ai an ang ao e ei en eng er o ou
ba bai ban bang bao bei ben beng bi bian biao bie bin bing bo bu
pa pai pan pang pao pei pen peng pi pian piao pie pin ping po pou pu
ma mai man mang mao me mei men meng mi mian miao mie min ming miu mo mou mu
fa fan fang fei fen feng fo fou fu
da dai dan dang dao de dei den deng di dia dian diao die ding diu dong dou du duan dui dun duo
ta tai tan tang tao te teng ti tian tiao tie ting tong tou tu tuan tui tun tuo
na nai nan nang nao ne nei nen neng ni nian niang niao nie nin ning niu nong nou nu nuan nuo nv nve
la lai lan lang lao le lei leng li lia lian liang liao lie lin ling liu long lou lu luan lun luo lv lve
ga gai gan gang gao ge gei gen geng gong gou gu gua guai guan guang gui gun guo
ka kai kan kang kao ke kei ken keng kong kou ku kua kuai kuan kuang kui kun kuo
ha hai han hang hao he hei hen heng hong hou hu hua huai huan huang hui hun huo
ji jia jian jiang jiao jie jin jing jiong jiu ju juan jue jun
qi qia qian qiang qiao qie qin qing qiong qiu qu quan que qun
xi xia xian xiang xiao xie xin xing xiong xiu xu xuan xue xun
zha zhai zhan zhang zhao zhe zhei zhen zheng zhi zhong zhou zhu zhua zhuai zhuan zhuang zhui zhun zhuo
cha chai chan chang chao che chen cheng chi chong chou chu chua chuai chuan chuang chui chun chuo
sha shai shan shang shao she shei shen sheng shi shou shu shua shuai shuan shuang shui shun shuo
ran rang rao re ren reng ri rong rou ru rua ruan rui run ruo
za zai zan zang zao ze zei zen zeng zi zong zou zu zuan zui zun zuo
ca cai can cang cao ce cen ceng ci cong cou cu cuan cui cun cuo
sa sai san sang sao se sen seng si song sou su suan sui sun suo
ya yan yang yao ye yi yin ying yo yong you yu yuan yue yun
wa wai wan wang wei wen weng wo wu
""".split()

BASE_TRAIN = """
我们一起去公园看花
他说明天早上要去学校
老师让我们多读书多写字
中国是一个很大的国家
今天天气很好我们去爬山
妈妈在家里做饭等我们回来
小王和小李是好朋友
这本书的内容很有意思
他每天早上七点起床
我想买一件新衣服
河里的水很清可以看见鱼
大家都说他是一个好人
冬天来了天气越来越冷
春天的花开得很美
我的家在北京的南边
你知道他为什么没有来吗
学生们在教室里上课
那只小猫喜欢在床上睡觉
哥哥在大学学习法律
晚饭后我们在湖边走路
他把车开到了火车站
请问去银行怎么走
姐姐唱歌唱得很好听
这条路上车很多要小心
外面下雨了别忘了拿伞
农民在田里种菜
工人们正在修路
商店里的东西不贵
我用笔在纸上写了几个字
那个孩子的眼睛很亮
爷爷每天看报纸听新闻
奶奶给我讲了一个故事
弟弟喜欢踢球和跑步
妹妹画的画得了第一名
冬天的雪把山都变白了
高山上的风很大很冷
船在海上慢慢地走
鸟在树上唱歌
马在草地上跑来跑去
鱼在水里游来游去
他是我们班最高的学生
明年春天我要去南方看海
这家店的茶很香
朋友送了我一本好书
你的话很有道理
他的字写得又快又好
水果店里有很多种水果
今天是我妹妹的生日
我们在山下的小村里住了三天
那里的人们生活得很开心
开会的时间变了请告诉大家
电影七点半开始不要来晚了
公司今年的生意很好
白马比黑马跑得快
你要多喝水多运动
这个问题很难没有人会答
风把门关上了
书店就在学校的东边
天上的白云像一群羊
弟弟把我的笔拿走了
大家请坐我们开始上课
这个方法又简单又好用
他在外国学了三年音乐
冬瓜和西瓜都是瓜
长江的水流向大海
夏天的晚上我们在院子里看星星
叔叔是开火车的
医生说他的病很快会好
坐船看海上的日出很美
来我家吃晚饭吧
你先走我等他一会儿
这些花有红的有黄的
门前的大树有一百年了
心里有话就说出来
他一边走一边唱歌
山里的空气很新鲜
少说话多做事
天黑了我们回家吧
请把门开一下好吗
妈妈买的鱼很新鲜
""".split()

TOY20 = """
他是一位有名的医生
时间就是金钱
世上无难事只怕有心人
事实就是这样
十个人里有九个说好
石头下面有一条鱼
食堂的饭很好吃
老师时常说实话
诗人写了一首诗
市场上的水果真多
是谁在教室里唱歌
历史书上有很多故事
妈妈骑马马慢妈妈骂马
同学们一同去动物园
星期天大家一起去公园
青山绿水真美
有志者事竟成
知识就是力量
四是四十是十十四是十四四十是四十
天上星多月不明
""".split()

# Hand-written evaluation sentences: reuse training vocabulary but in novel
# phrasings, with heavy homophone pressure (shi/yi/ji/jian/qing families),
# so transcription ambiguity is actually exercised on held-out text.
NOVEL_HELDOUT = """
市里新开了一家书店
他试着写了一首歌
这件事是他说的
我们市的医院很有名
同学们在市场边上等车
青年人要有志气
他的意见很有价值
艺术家画了一张名画
易先生去银行取钱
他已经学会骑马了
建新房子要用很多砖
见到老朋友他很开心
这间屋子又亮又干净
健康比金钱更重要
清早的海边很安静
轻声说话是一种礼貌
晴天的湖水又清又绿
他心情好的时候爱唱歌
石桥下面的河水很深
十月的天气不冷也不热
时间不等人我们快走吧
食堂今天的汤很好喝
实话说这本书我没看完
诗里写的是江南的春天
师生们一起去看历史剧
世界上有很多高山大河
公园里的花五颜六色
工厂的大门前停着一辆车
功课做完才可以去玩
姐姐送我一件红毛衣
古时候的人用马送信
秋天到了农民们很开心
湖边的小树长高了
生意人讲信用
升国旗的时候大家都站着
声音太大了请小一点
城里的生活变化很快
乘船过江要注意安全
成功要靠自己的努力
奶奶家的院子里种着花
""".split()

SUBJECTS = "我们 他们 你们 老师 学生们 爸爸 妈妈 哥哥 姐姐 弟弟 妹妹 朋友们 工人们 医生 小王 小李".split()
ADVERBS = "明天 今天 昨天 早上 晚上 下午 星期天 每天 常常 先".split()
VERB_PHRASES = (
    "去公园看花 去学校上课 在家里做饭 去山上看日出 在湖边走路 去书店买书 在教室里读书 "
    "去城里看朋友 在田里种菜 去海边游泳 听老师讲故事 去市场买菜 在院子里唱歌 去火车站接人 "
    "在房间里写字 去商店买东西 打球 爬山看风景 坐船看海 喝茶说话"
).split()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    segments = set(SEGMENTS)
    assert len(segments) == len(SEGMENTS), "duplicate segment in syllabary"
    syllabary = SyllableInventory(frozenset(f"{seg}{tone}" for seg in segments for tone in "12345"), "syllabary")
    lexicon = PronunciationLexicon.from_file(DATA / "lexicon.tsv", syllabary)
    neutral = {unit for unit in lexicon.all_units() if unit.endswith("5")}
    rows = sum(len(lexicon.readings(char)) for char in lexicon.characters)

    problems = []
    rng = random.Random(SEED)
    combos = [(s, a, v) for s in SUBJECTS for a in ADVERBS for v in VERB_PHRASES]
    rng.shuffle(combos)
    generated = ["".join(c) for c in combos]
    train = list(BASE_TRAIN) + generated[:120]
    heldout = list(NOVEL_HELDOUT) + generated[120:300]

    for name, sentences in [("train", train), ("heldout", heldout), ("toy20", TOY20)]:
        for sentence in sentences:
            if not 5 <= len(sentence) <= 40:
                problems.append(f"{name}: length {len(sentence)} outside [5,40]: {sentence}")
            missing = sorted({c for c in sentence if c not in lexicon})
            if missing:
                problems.append(f"{name}: uncovered characters {''.join(missing)} in: {sentence}")

    if problems:
        for p in problems:
            print("ERROR:", p, file=sys.stderr)
        return 1

    tonal_units = sorted({f"{seg}{tone}" for seg in segments for tone in "1234"} | neutral)
    inventory_lines = [
        "# Tonal pinyin unit inventory: every syllabary segment with tones 1-4,",
        "# plus the neutral-tone (5) units attested in the bundled lexicon.",
        "# version: inventory-v1",
        f"# tonal units: {len(tonal_units)}",
        f"# toneless units: {len(segments)}",
    ] + tonal_units
    (DATA / "syllables.txt").write_text("\n".join(inventory_lines) + "\n", encoding="utf-8")
    (DATA / "corpus_train.txt").write_text("\n".join(train) + "\n", encoding="utf-8")
    (DATA / "corpus_heldout.txt").write_text("\n".join(heldout) + "\n", encoding="utf-8")
    (DATA / "corpus_toy20.txt").write_text("\n".join(TOY20) + "\n", encoding="utf-8")

    counts = {
        "syllables.txt": len(tonal_units),
        "lexicon.tsv": rows,
        "corpus_train.txt": len(train),
        "corpus_heldout.txt": len(heldout),
        "corpus_toy20.txt": len(TOY20),
    }
    manifest = [f"{name}\t{sha256(DATA / name)}\t{counts[name]}" for name in sorted(counts)]
    (DATA / "manifest.tsv").write_text("\n".join(manifest) + "\n", encoding="utf-8")

    print(f"inventory: {len(tonal_units)} tonal / {len(segments)} toneless units")
    print(f"lexicon: {rows} rows, {len(lexicon)} characters")
    print(f"corpora: train={len(train)} heldout={len(heldout)} toy20={len(TOY20)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
